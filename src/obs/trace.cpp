#include "obs/trace.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>
#include <unordered_set>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/build_info.hpp"
#include "support/timer.hpp"

namespace columbia::obs {
namespace {

/// Shared by both build variants: a "columbia" metadata object alongside
/// traceEvents so offline tools (columbia_report) know the provenance and
/// thread count of the run that produced the trace.
void write_provenance(JsonWriter& w, std::int64_t threads) {
  const BuildInfo& bi = build_info();
  w.key("columbia").begin_object();
  w.kv("git_sha", bi.git_sha);
  w.kv("build_type", bi.build_type);
  w.kv("obs", bi.obs_compiled);
  w.kv("threads", threads);
  w.kv("hardware_threads", std::int64_t(hardware_threads()));
  w.end_object();
}

}  // namespace

const char* intern(std::string_view name) {
  // Never destroyed: events may be read by static destructors and atexit
  // exporters. Set nodes never move, so c_str() stays valid.
  static auto* mu = new std::mutex;
  static auto* names = new std::unordered_set<std::string>;
  const std::lock_guard<std::mutex> lock(*mu);
  return names->emplace(name).first->c_str();
}

std::int64_t TraceEvent::arg_or(const char* key, std::int64_t fallback) const {
  for (int i = 0; i < nargs; ++i) {
    const char* a = args[i].name;
    if (a != nullptr && std::string_view(a) == key) return args[i].value;
  }
  return fallback;
}

}  // namespace columbia::obs

namespace columbia::obs {

#if COLUMBIA_OBS_ENABLED

namespace {

bool env_enabled() {
  const char* s = std::getenv("COLUMBIA_TRACE");
  return s != nullptr && std::atoi(s) != 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}

/// Append-only event buffer owned by one writer thread. Slots below the
/// published count are immutable; the release store on publish pairs with
/// the reader's acquire load, so snapshots are race-free without locking
/// the hot path. Chunks are never freed or moved once allocated.
class ThreadBuffer {
 public:
  static constexpr std::size_t kChunkSize = 4096;

  void push(const TraceEvent& e) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    const std::size_t chunk = n / kChunkSize;
    if (chunk >= chunks_.size()) {
      // Rare (every kChunkSize events). The lock only orders the vector
      // growth against concurrent snapshot() readers; the owning thread is
      // the sole writer of chunks_.
      std::lock_guard<std::mutex> lock(chunks_mu_);
      chunks_.push_back(std::make_unique<Chunk>());
    }
    chunks_[chunk]->ev[n % kChunkSize] = e;
    count_.store(n + 1, std::memory_order_release);
  }

  std::size_t count() const { return count_.load(std::memory_order_acquire); }

  void snapshot(std::vector<TraceEvent>& out, std::uint32_t tid) const {
    std::lock_guard<std::mutex> lock(chunks_mu_);
    const std::size_t n = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      TraceEvent e = chunks_[i / kChunkSize]->ev[i % kChunkSize];
      e.tid = tid;
      out.push_back(e);
    }
  }

  void reset() { count_.store(0, std::memory_order_release); }

 private:
  struct Chunk {
    std::array<TraceEvent, kChunkSize> ev;
  };
  std::vector<std::unique_ptr<Chunk>> chunks_;
  mutable std::mutex chunks_mu_;
  std::atomic<std::size_t> count_{0};
};

struct Registry {
  std::mutex mu;
  // Buffers are registered once per recording thread and never removed:
  // thread_local pointers into this list must stay valid after the thread
  // exits (pool resizes join and respawn workers).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* reg = new Registry;  // leaked: outlives static dtors
  return *reg;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = reg.buffers.back().get();
  }
  return *buf;
}

std::uint64_t epoch_ns() {
  static const std::uint64_t epoch = WallTimer::now_ns();
  return epoch;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  epoch_ns();  // pin the epoch no later than the first enable
  enabled_flag().store(on, std::memory_order_relaxed);
}

void record_span_event(const char* name, char phase, const SpanArg* args,
                       int nargs) {
  TraceEvent e;
  e.name = name;
  e.nargs = nargs < kMaxSpanArgs ? nargs : kMaxSpanArgs;
  for (int i = 0; i < e.nargs; ++i) e.args[i] = args[i];
  e.ts_ns = WallTimer::now_ns();
  e.phase = phase;
  local_buffer().push(e);
}

std::uint64_t trace_epoch_ns() { return epoch_ns(); }

std::size_t num_trace_events() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t total = 0;
  for (const auto& b : reg.buffers) total += b->count();
  return total;
}

std::vector<TraceEvent> trace_snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<TraceEvent> out;
  for (std::size_t t = 0; t < reg.buffers.size(); ++t)
    reg.buffers[t]->snapshot(out, std::uint32_t(t));
  return out;
}

void write_chrome_trace(std::ostream& os) {
  const std::vector<TraceEvent> events = trace_snapshot();
  const std::uint64_t epoch = epoch_ns();
  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  write_provenance(w, gauge("pool.threads").value());
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", std::string(1, e.phase));
    // Chrome expects microseconds; fractional part preserves ns ticks.
    const std::uint64_t rel = e.ts_ns >= epoch ? e.ts_ns - epoch : 0;
    w.kv("ts", double(rel) / 1e3);
    w.kv("pid", std::int64_t(0));
    w.kv("tid", std::int64_t(e.tid));
    if (e.phase == 'B' && e.nargs > 0) {
      w.key("args").begin_object();
      for (int i = 0; i < e.nargs; ++i)
        if (e.args[i].name != nullptr) w.kv(e.args[i].name, e.args[i].value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return bool(os);
}

void reset_trace() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& b : reg.buffers) b->reset();
}

#else  // !COLUMBIA_OBS_ENABLED — keep the link surface, record nothing.

std::uint64_t trace_epoch_ns() { return 0; }

std::size_t num_trace_events() { return 0; }

std::vector<TraceEvent> trace_snapshot() { return {}; }

void write_chrome_trace(std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  write_provenance(w, 0);
  w.key("traceEvents").begin_array().end_array();
  w.end_object();
  os << '\n';
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return bool(os);
}

void reset_trace() {}

#endif  // COLUMBIA_OBS_ENABLED

}  // namespace columbia::obs
