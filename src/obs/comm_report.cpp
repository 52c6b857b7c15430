#include "obs/comm_report.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "obs/json.hpp"

namespace columbia::obs {

bool is_xchg_phase(const std::string& name) {
  return name.rfind("halo.xchg.", 0) == 0;
}

std::string strategy_name(std::int64_t strat) {
  if (strat == 0) return "t2t";
  if (strat == 1) return "master";
  return "-";
}

namespace {

enum class Kind { Pack, Post, Wait, Unpack, Retransmit, Other };

Kind kind_of(const std::string& name) {
  if (name == "halo.xchg.pack") return Kind::Pack;
  if (name == "halo.xchg.post") return Kind::Post;
  if (name == "halo.xchg.wait") return Kind::Wait;
  if (name == "halo.xchg.unpack") return Kind::Unpack;
  if (name == "halo.xchg.retransmit") return Kind::Retransmit;
  return Kind::Other;
}

/// One completed halo.xchg span on the merged timeline.
struct CommSpan {
  Kind kind = Kind::Other;
  std::int64_t level = -1, rank = -1, nbr = -1, strat = -1, bytes = -1;
  std::int64_t round = 0;  // relaunch round (merged telemetry shards)
  double t0_us = 0, t1_us = 0;
  double excl_us = 0;  // minus same-thread children (nested waits)
};

struct GroupKey {
  std::int64_t level, strat;
  bool operator<(const GroupKey& o) const {
    if (level != o.level) return level < o.level;
    return strat < o.strat;
  }
};

/// Waits match posts k-th-to-k-th per directed pair WITHIN one relaunch
/// round: a failed round's unmatched post tail must never slide under the
/// next round's waits (in-process recordings are all round 0).
struct PairKey {
  std::int64_t round, sender, receiver;
  bool operator<(const PairKey& o) const {
    if (round != o.round) return round < o.round;
    if (sender != o.sender) return sender < o.sender;
    return receiver < o.receiver;
  }
};

/// Longest dependency chain through one group's exchange DAG. Edges:
/// same-rank happens-before (any span that ended at or before this span
/// began) and matched post -> wait. Exclusive durations keep nested spans
/// (master-strategy unpack around its waits) from double-counting.
double critical_path_us(const std::vector<CommSpan>& spans,
                        const std::map<const CommSpan*, const CommSpan*>&
                            matched_post) {
  // Process in end-time order so every dependency is resolved before its
  // dependents; per rank, keep the running max of finished-chain lengths
  // keyed by end time for the happens-before lookup.
  std::vector<const CommSpan*> order;
  order.reserve(spans.size());
  for (const CommSpan& s : spans) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [](const CommSpan* a, const CommSpan* b) {
                     if (a->t1_us != b->t1_us) return a->t1_us < b->t1_us;
                     return a->t0_us < b->t0_us;
                   });

  struct RankChain {
    std::vector<double> t1;       // nondecreasing (processing order)
    std::vector<double> best_cp;  // prefix max of cp at t1[i]
  };
  std::map<std::int64_t, RankChain> chains;
  std::map<const CommSpan*, double> cp;

  double best = 0;
  for (const CommSpan* s : order) {
    double dep = 0;
    RankChain& rc = chains[s->rank];
    // Largest chain among same-rank spans already finished when s began.
    const auto it =
        std::upper_bound(rc.t1.begin(), rc.t1.end(), s->t0_us);
    if (it != rc.t1.begin())
      dep = rc.best_cp[std::size_t(it - rc.t1.begin()) - 1];
    if (s->kind == Kind::Wait) {
      const auto m = matched_post.find(s);
      if (m != matched_post.end()) {
        const auto pc = cp.find(m->second);
        if (pc != cp.end()) dep = std::max(dep, pc->second);
      }
    }
    const double c = dep + s->excl_us;
    cp[s] = c;
    rc.t1.push_back(s->t1_us);
    rc.best_cp.push_back(
        rc.best_cp.empty() ? c : std::max(rc.best_cp.back(), c));
    best = std::max(best, c);
  }
  return best;
}

}  // namespace

CommReport build_comm_report(const std::vector<PhaseEvent>& events) {
  CommReport out;

  // Pass 1: close begin/end pairs per thread (same discipline as
  // build_profile) and keep the halo.xchg spans plus the per-level
  // comm/interior exclusive-time split the overlap analyzer needs.
  std::map<int, std::vector<const PhaseEvent*>> per_tid;
  for (const PhaseEvent& e : events) per_tid[e.tid].push_back(&e);

  struct Frame {
    const PhaseEvent* begin;
    double child_us = 0;
  };
  std::vector<CommSpan> spans;
  std::map<std::int64_t, double> level_comm_us, level_interior_us;
  std::map<std::int64_t, std::set<std::int64_t>> level_ranks;

  for (const auto& [tid, evs] : per_tid) {
    std::vector<Frame> stack;
    for (const PhaseEvent* e : evs) {
      if (e->phase == 'B') {
        stack.push_back({e});
        continue;
      }
      if (e->phase != 'E') continue;
      if (stack.empty() || stack.back().begin->name != e->name) continue;
      const Frame f = stack.back();
      stack.pop_back();
      const double incl_us = e->ts_us - f.begin->ts_us;
      const double excl_us = std::max(0.0, incl_us - f.child_us);
      if (!stack.empty()) stack.back().child_us += incl_us;
      if (is_xchg_phase(f.begin->name)) {
        CommSpan s;
        s.kind = kind_of(f.begin->name);
        s.level = f.begin->level;
        s.rank = f.begin->rank;
        s.nbr = f.begin->nbr;
        s.strat = f.begin->strat;
        s.bytes = f.begin->bytes;
        s.round = f.begin->round;
        s.t0_us = f.begin->ts_us;
        s.t1_us = e->ts_us;
        s.excl_us = excl_us;
        spans.push_back(s);
        if (s.level >= 0) level_ranks[s.level].insert(s.rank);
      }
      if (f.begin->level >= 0) {
        if (is_comm_phase(f.begin->name))
          level_comm_us[f.begin->level] += excl_us;
        else
          level_interior_us[f.begin->level] += excl_us;
      }
    }
  }
  if (spans.empty()) return out;

  // Pass 2: group by (level, strategy); match waits to posts k-th-to-k-th
  // per directed pair (recording order per thread is already time order,
  // and the group walk preserves it).
  std::map<GroupKey, std::vector<CommSpan>> groups;
  for (const CommSpan& s : spans) groups[{s.level, s.strat}].push_back(s);

  std::set<std::int64_t> all_ranks;
  std::map<std::int64_t, std::uint64_t> level_max_cell_msgs;

  for (auto& [key, gspans] : groups) {
    CommGroup g;
    g.level = key.level;
    g.strat = key.strat;

    std::map<PairKey, std::vector<const CommSpan*>> posts, waits;
    std::set<std::int64_t> ranks;
    for (const CommSpan& s : gspans) {
      ranks.insert(s.rank);
      all_ranks.insert(s.rank);
      const double excl_s = s.excl_us / 1e6;
      switch (s.kind) {
        case Kind::Pack:
          g.pack_s += excl_s;
          break;
        case Kind::Post:
          g.post_s += excl_s;
          posts[{s.round, s.rank, s.nbr}].push_back(&s);
          break;
        case Kind::Wait:
          g.wait_s += excl_s;
          waits[{s.round, s.nbr, s.rank}].push_back(&s);
          break;
        case Kind::Unpack:
          g.unpack_s += excl_s;
          break;
        case Kind::Retransmit:
          g.retransmits += 1;
          break;
        case Kind::Other:
          break;
      }
    }
    g.ranks = int(ranks.size());

    std::map<const CommSpan*, const CommSpan*> matched_post;
    // Cells aggregate over rounds: the matrix reports the directed pair,
    // not the launch attempt. Keyed (rank=receiver, nbr=sender).
    std::map<std::pair<std::int64_t, std::int64_t>, WaitCell> cells;
    for (auto& [pk, ws] : waits) {
      std::stable_sort(ws.begin(), ws.end(),
                       [](const CommSpan* a, const CommSpan* b) {
                         return a->t0_us < b->t0_us;
                       });
      auto pit = posts.find(pk);
      std::vector<const CommSpan*> ps =
          pit != posts.end() ? pit->second : std::vector<const CommSpan*>{};
      std::stable_sort(ps.begin(), ps.end(),
                       [](const CommSpan* a, const CommSpan* b) {
                         return a->t0_us < b->t0_us;
                       });
      WaitCell& cell = cells[{pk.receiver, pk.sender}];
      cell.rank = pk.receiver;
      cell.nbr = pk.sender;
      for (std::size_t k = 0; k < ws.size(); ++k) {
        const CommSpan* w = ws[k];
        const double dur_s = w->excl_us / 1e6;
        cell.wait_s += dur_s;
        if (k >= ps.size()) continue;  // sender side not captured
        const CommSpan* p = ps[k];
        matched_post[w] = p;
        cell.messages += 1;
        if (p->bytes > 0) cell.bytes += std::uint64_t(p->bytes);
        // Late sender: the portion of the wait that elapsed before the
        // matching post completed. Late receiver: how long the message
        // had been posted before the receiver started waiting.
        const double overlap_us =
            std::min(std::max(p->t1_us - w->t0_us, 0.0), w->excl_us);
        cell.late_sender_s += overlap_us / 1e6;
        cell.late_receiver_s += std::max(w->t0_us - p->t1_us, 0.0) / 1e6;
        // Measured delivery: post begin to wait end, the span the machine
        // model prices as latency + payload/bandwidth. Guard >= 0 — clock
        // correction is only good to the sync RTT.
        const double xfer_s = std::max(w->t1_us - p->t0_us, 0.0) / 1e6;
        if (cell.messages == 1 || xfer_s < cell.xfer_min_s)
          cell.xfer_min_s = xfer_s;
        cell.xfer_s += xfer_s;
      }
    }
    for (auto& [ck, cell] : cells) {
      g.messages += cell.messages;
      g.bytes += cell.bytes;
      if (cell.messages > 0) {
        if (g.messages == cell.messages || cell.xfer_min_s < g.xfer_min_s)
          g.xfer_min_s = cell.xfer_min_s;  // first matched cell seeds the min
        g.xfer_s += cell.xfer_s;
      }
      if (g.level >= 0) {
        std::uint64_t& mx = level_max_cell_msgs[g.level];
        mx = std::max(mx, cell.messages);
      }
      g.cells.push_back(cell);
    }
    g.critical_path_s = critical_path_us(gspans, matched_post) / 1e6;

    out.wait_s += g.wait_s;
    out.retransmits += g.retransmits;
    for (const WaitCell& c : g.cells) {
      out.late_sender_s += c.late_sender_s;
      out.late_receiver_s += c.late_receiver_s;
    }
    out.groups.push_back(std::move(g));
  }
  out.ranks = int(all_ranks.size());

  // Pass 3: per-level overlap headroom + agglomeration advice.
  for (const auto& [level, ranks] : level_ranks) {
    LevelOverlap lo;
    lo.level = level;
    lo.ranks = int(ranks.size());
    for (const CommGroup& g : out.groups)
      if (g.level == level) lo.wait_s += g.wait_s;
    const auto ci = level_comm_us.find(level);
    lo.comm_s = ci != level_comm_us.end() ? ci->second / 1e6 : 0;
    const auto ii = level_interior_us.find(level);
    lo.interior_s = ii != level_interior_us.end() ? ii->second / 1e6 : 0;
    lo.coverable_s = std::min(lo.wait_s, lo.interior_s);
    lo.headroom = lo.wait_s > 0 ? lo.coverable_s / lo.wait_s : 1;
    // Claimed overlap: late-receiver time is exactly the share of each
    // message's life spent already-delivered while the receiver computed.
    for (const CommGroup& g : out.groups)
      if (g.level == level)
        for (const WaitCell& c : g.cells) lo.claimed_s += c.late_receiver_s;
    const auto mi = level_max_cell_msgs.find(level);
    lo.exchanges = mi != level_max_cell_msgs.end() ? mi->second : 0;
    if (lo.exchanges > 0 && lo.ranks > 0) {
      const double n = double(lo.ranks) * double(lo.exchanges);
      lo.comm_per_exchange_s = lo.comm_s / n;
      lo.compute_per_exchange_s = lo.interior_s / n;
      lo.agglomerate = lo.compute_per_exchange_s < lo.comm_per_exchange_s;
    }
    out.levels.push_back(lo);
  }
  return out;
}

Table comm_wait_matrix_table(const CommReport& r) {
  Table t({"level", "strat", "rank", "nbr", "msgs", "KB", "wait ms",
           "late-send ms", "late-recv ms"});
  for (const CommGroup& g : r.groups) {
    for (const WaitCell& c : g.cells) {
      t.add_row({g.level >= 0 ? std::to_string(g.level) : "-",
                 strategy_name(g.strat), std::to_string(c.rank),
                 std::to_string(c.nbr), std::to_string(c.messages),
                 Table::num(double(c.bytes) / 1e3, 2),
                 Table::num(c.wait_s * 1e3, 3),
                 Table::num(c.late_sender_s * 1e3, 3),
                 Table::num(c.late_receiver_s * 1e3, 3)});
    }
  }
  return t;
}

Table comm_strategy_table(const CommReport& r) {
  Table t({"level", "strategy", "ranks", "msgs", "KB", "wait ms",
           "late-send %", "late-recv %", "crit path ms", "retransmits"});
  for (const CommGroup& g : r.groups) {
    double ls = 0, lr = 0;
    for (const WaitCell& c : g.cells) {
      ls += c.late_sender_s;
      lr += c.late_receiver_s;
    }
    const double split = ls + lr;
    t.add_row({g.level >= 0 ? std::to_string(g.level) : "-",
               strategy_name(g.strat), std::to_string(g.ranks),
               std::to_string(g.messages),
               Table::num(double(g.bytes) / 1e3, 2),
               Table::num(g.wait_s * 1e3, 3),
               Table::num(split > 0 ? 100 * ls / split : 0, 1),
               Table::num(split > 0 ? 100 * lr / split : 0, 1),
               Table::num(g.critical_path_s * 1e3, 3),
               std::to_string(g.retransmits)});
  }
  return t;
}

Table comm_overlap_table(const CommReport& r) {
  // "claimed ms" vs "coverable ms" closes the loop on the headroom
  // advisor: coverable is what interior compute could hide, claimed is
  // the late-receiver time the split post()/finish() path actually hid.
  Table t({"level", "ranks", "exchanges", "comm ms", "wait ms",
           "interior ms", "coverable ms", "claimed ms", "headroom",
           "advice"});
  for (const LevelOverlap& l : r.levels) {
    t.add_row({std::to_string(l.level), std::to_string(l.ranks),
               std::to_string(l.exchanges), Table::num(l.comm_s * 1e3, 3),
               Table::num(l.wait_s * 1e3, 3),
               Table::num(l.interior_s * 1e3, 3),
               Table::num(l.coverable_s * 1e3, 3),
               Table::num(l.claimed_s * 1e3, 3),
               Table::num(l.headroom, 3),
               l.agglomerate ? "agglomerate" : "-"});
  }
  return t;
}

void write_comm_json_into(JsonWriter& w, const CommReport& r) {
  w.begin_object();
  w.kv("wait_s", r.wait_s);
  w.kv("late_sender_s", r.late_sender_s);
  w.kv("late_receiver_s", r.late_receiver_s);
  w.kv("retransmits", r.retransmits);
  w.kv("ranks", std::int64_t(r.ranks));
  w.key("groups").begin_array();
  for (const CommGroup& g : r.groups) {
    w.begin_object();
    w.kv("level", g.level);
    w.kv("strategy", strategy_name(g.strat));
    w.kv("ranks", std::int64_t(g.ranks));
    w.kv("messages", g.messages);
    w.kv("bytes", g.bytes);
    w.kv("pack_s", g.pack_s);
    w.kv("post_s", g.post_s);
    w.kv("wait_s", g.wait_s);
    w.kv("unpack_s", g.unpack_s);
    w.kv("xfer_s", g.xfer_s);
    w.kv("xfer_min_s", g.xfer_min_s);
    w.kv("critical_path_s", g.critical_path_s);
    w.kv("retransmits", g.retransmits);
    w.key("cells").begin_array();
    for (const WaitCell& c : g.cells) {
      w.begin_object();
      w.kv("rank", c.rank);
      w.kv("nbr", c.nbr);
      w.kv("messages", c.messages);
      w.kv("bytes", c.bytes);
      w.kv("wait_s", c.wait_s);
      w.kv("late_sender_s", c.late_sender_s);
      w.kv("late_receiver_s", c.late_receiver_s);
      w.kv("xfer_s", c.xfer_s);
      w.kv("xfer_min_s", c.xfer_min_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("levels").begin_array();
  for (const LevelOverlap& l : r.levels) {
    w.begin_object();
    w.kv("level", l.level);
    w.kv("ranks", std::int64_t(l.ranks));
    w.kv("exchanges", l.exchanges);
    w.kv("wait_s", l.wait_s);
    w.kv("comm_s", l.comm_s);
    w.kv("interior_s", l.interior_s);
    w.kv("coverable_s", l.coverable_s);
    w.kv("claimed_s", l.claimed_s);
    w.kv("headroom", l.headroom);
    w.kv("comm_per_exchange_s", l.comm_per_exchange_s);
    w.kv("compute_per_exchange_s", l.compute_per_exchange_s);
    w.kv("agglomerate", l.agglomerate);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace columbia::obs
