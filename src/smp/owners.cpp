#include "smp/owners.hpp"

#include "support/assert.hpp"

namespace columbia::smp {

void EdgeOwners::build(std::size_t nv, std::span<const index_t> a,
                       std::span<const index_t> b, int num_parts,
                       std::span<const index_t> subset) {
  COLUMBIA_REQUIRE(num_parts >= 1);
  COLUMBIA_REQUIRE(a.size() == b.size());
  const std::size_t ne = a.size();
  COLUMBIA_REQUIRE(ne < (std::size_t(1) << 30));
  const std::size_t np = std::size_t(num_parts);
  parts = num_parts;
  num_vertices = nv;
  num_edges = ne;
  subset_size = subset.size();

  // Contiguous vertex ranges with about 1/P of the owned edge endpoints
  // each. `part` first counts each vertex's edges, then holds the vertex's
  // part (kNone outside the subset).
  constexpr std::uint32_t kNone = ~std::uint32_t(0);
  std::vector<std::uint32_t> part(nv, 0);
  for (std::size_t e = 0; e < ne; ++e) {
    ++part[std::size_t(a[e])];
    ++part[std::size_t(b[e])];
  }
  std::size_t total = 2 * ne;
  if (!subset.empty()) {
    std::vector<std::uint32_t> deg(nv, kNone);
    total = 0;
    for (const index_t v : subset) {
      deg[std::size_t(v)] = part[std::size_t(v)];
      total += part[std::size_t(v)];
    }
    part.swap(deg);
  }
  vertex_begin.assign(np + 1, index_t(nv));
  vertex_begin[0] = 0;
  std::size_t seen = 0, p = 1;
  for (std::size_t i = 0; i < nv; ++i) {
    if (part[i] == kNone) continue;
    while (p < np && seen * np >= p * total) vertex_begin[p++] = index_t(i);
    seen += part[i];
    part[i] = std::uint32_t(p - 1);
  }

  // Per-part counts, then one ascending pass over the edges.
  offsets.assign(np + 1, 0);
  for (std::size_t e = 0; e < ne; ++e) {
    const std::uint32_t pa = part[std::size_t(a[e])];
    const std::uint32_t pb = part[std::size_t(b[e])];
    if (pa != kNone) ++offsets[pa + 1];
    if (pb != pa && pb != kNone) ++offsets[pb + 1];
  }
  for (std::size_t q = 0; q < np; ++q) offsets[q + 1] += offsets[q];
  entries.resize(offsets[np]);
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t e = 0; e < ne; ++e) {
    const std::uint32_t pa = part[std::size_t(a[e])];
    const std::uint32_t pb = part[std::size_t(b[e])];
    const std::uint32_t tag = std::uint32_t(e) << 2;
    if (pa == pb) {
      if (pa != kNone) entries[fill[pa]++] = tag | kOwnBoth;
    } else {
      if (pa != kNone) entries[fill[pa]++] = tag | kOwnA;
      if (pb != kNone) entries[fill[pb]++] = tag | kOwnB;
    }
  }
}

const EdgeOwners& EdgeOwners::fit(std::size_t nv, std::span<const index_t> a,
                                  std::span<const index_t> b,
                                  std::span<const index_t> subset) {
  const int width = ThreadPool::global().num_threads();
  if (parts != width || num_vertices != nv || num_edges != a.size() ||
      subset_size != subset.size())
    build(nv, a, b, width, subset);
  return *this;
}

}  // namespace columbia::smp
