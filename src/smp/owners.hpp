// Owner-writes decomposition for scatter sweeps over the edges of a graph:
// NSU3D's edge loops (nodes joined by edges) and Cart3D's interior-face
// loops (cells joined by faces) both add a contribution into each of the
// two endpoints of every edge.
//
// The vertices are split into `parts` contiguous index ranges balanced by
// edge endpoints; part p lists, in ascending edge index, every edge with
// an endpoint it owns, flagged with the sides it owns. A sweep runs one
// pool task per part, and a task accumulates into its own vertices only:
// an edge whose endpoints lie in two parts is evaluated by both, each
// writing its own side. So every vertex is written by one task, in
// ascending edge order — the order of a serial sweep — whatever the part
// count or the split, and threaded sweeps are bit-identical to serial ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "smp/pool.hpp"
#include "support/types.hpp"

namespace columbia::smp {

struct EdgeOwners {
  static constexpr std::uint32_t kOwnA = 1, kOwnB = 2, kOwnBoth = 3;

  int parts = 0;
  std::size_t num_vertices = 0, num_edges = 0;  // graph the lists describe
  /// Part p owns vertices [vertex_begin[p], vertex_begin[p+1]) and lists
  /// entries [offsets[p], offsets[p+1]); an entry is (edge << 2) | the
  /// kOwnA / kOwnB bits of the sides it owns.
  std::vector<index_t> vertex_begin;
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> entries;

  /// Rebuilds the lists for the edges (a[e], b[e]) over `num_vertices`
  /// vertices split into `num_parts` parts; O(V + E).
  void build(std::size_t num_vertices, std::span<const index_t> a,
             std::span<const index_t> b, int num_parts);

  /// The lists for the calling thread's pool (ThreadPool::global()):
  /// rebuilt first when its width or the graph's size no longer match.
  const EdgeOwners& fit(std::size_t num_vertices, std::span<const index_t> a,
                        std::span<const index_t> b);
};

/// Runs `body(e, own_a, own_b)` over every edge of `own` as ONE pool job
/// with one task per owner part. `own_a` / `own_b` are
/// std::bool_constant tags: the body accumulates into an endpoint only
/// when its tag is set, and writes per-edge outputs only when it owns
/// side a. The tags are compile-time, so the common both-sides case (every
/// edge at width 1) costs no branch in the body.
template <class Fn>
void for_edges_owned(const EdgeOwners& own, Fn&& body) {
  using Own = std::true_type;
  using NotOwn = std::false_type;
  if (own.parts == 1) {
    // One part lists every edge in order with both sides owned: walk the
    // edge indices directly, as a plain serial loop would.
    for (std::size_t e = 0; e < own.num_edges; ++e) body(e, Own{}, Own{});
    return;
  }
  const std::size_t* const off = own.offsets.data();
  const std::uint32_t* const ent = own.entries.data();
  ThreadPool::global().parallel_for(
      0, std::size_t(own.parts), 1, [&](std::size_t pb, std::size_t pe, int) {
        for (std::size_t p = pb; p < pe; ++p)
          for (std::size_t k = off[p]; k < off[p + 1]; ++k) {
            const std::uint32_t x = ent[k];
            const std::size_t e = x >> 2;
            switch (x & EdgeOwners::kOwnBoth) {
              case EdgeOwners::kOwnBoth: body(e, Own{}, Own{}); break;
              case EdgeOwners::kOwnA: body(e, Own{}, NotOwn{}); break;
              default: body(e, NotOwn{}, Own{}); break;
            }
          }
      });
}

}  // namespace columbia::smp
