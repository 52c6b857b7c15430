#include "nsu3d/partitioned.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "graph/agglomerate.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "obs/obs.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"

namespace columbia::nsu3d {

using geom::Vec3;

core::RequestLists halo_requests(const Level& lvl,
                                 std::span<const index_t> part,
                                 index_t nparts) {
  const std::size_t np = std::size_t(nparts);
  // Every cross-partition edge makes each endpoint a ghost of the other
  // side. Deduplicate and sort by (owner, node): a partition fetches each
  // ghost once per exchange, packed per neighbor (Fig. 6a).
  std::vector<std::vector<std::pair<index_t, index_t>>> want(np);
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    const index_t pa = part[std::size_t(a)];
    const index_t pb = part[std::size_t(b)];
    if (pa == pb) continue;
    want[std::size_t(pa)].push_back({pb, b});
    want[std::size_t(pb)].push_back({pa, a});
  }
  core::RequestLists requests(np);
  for (index_t p = 0; p < nparts; ++p) {
    auto& w = want[std::size_t(p)];
    std::sort(w.begin(), w.end());
    w.erase(std::unique(w.begin(), w.end()), w.end());
    requests[std::size_t(p)].reserve(w.size());
    for (const auto& [owner, node] : w)
      requests[std::size_t(p)].push_back({owner, node});
  }
  return requests;
}

PartitionPlan build_partition_plan(const std::vector<Level>& levels,
                                   index_t nparts, std::uint64_t seed) {
  COLUMBIA_REQUIRE(!levels.empty() && nparts >= 1);
  const std::size_t np = std::size_t(nparts);
  PartitionPlan plan;
  plan.nparts = nparts;

  std::vector<index_t> prev_part;  // finer level's partition
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Level& lvl = levels[l];
    LevelDecomposition dec;
    dec.nparts = nparts;

    graph::PartitionOptions popt;
    popt.seed = seed + l;

    if (l == 0 && lvl.lines.longest() > 1) {
      dec.part = partition_fine(lvl, nparts, popt.seed);
    } else {
      const graph::Csr g = graph::Csr::from_edges(lvl.num_nodes, lvl.edges);
      dec.part = graph::partition(g, nparts, popt);
    }

    // Coarse levels: relabel to overlap the finer level's partitions
    // (paper: greedy matching by degree of overlap).
    if (l > 0) {
      dec.part = graph::match_partitions(prev_part, levels[l - 1].to_coarse,
                                         dec.part, nparts);
    }

    // Work statistics.
    std::vector<index_t> count(np, 0);
    for (index_t p : dec.part) ++count[std::size_t(p)];
    index_t max_nodes = 0;
    for (index_t c : count) {
      max_nodes = std::max(max_nodes, c);
      if (c == 0) ++dec.empty_parts;
    }
    dec.max_part_nodes = real_t(max_nodes);
    dec.avg_part_nodes = real_t(lvl.num_nodes) / real_t(nparts);

    // Halo statistics: ghosts per part and communication degree, read off
    // the exchange schedule this decomposition implies.
    const core::ExchangePlan xplan(halo_requests(lvl, dec.part, nparts));
    dec.max_ghost_nodes = real_t(xplan.max_ghost_items());
    dec.total_ghost_nodes = real_t(xplan.total_ghost_items());
    dec.max_comm_degree = xplan.max_neighbors();

    plan.levels.push_back(std::move(dec));
    prev_part = plan.levels.back().part;
  }

  // Inter-grid statistics (fine node -> coarse agglomerate on another part).
  for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
    const Level& fine = levels[l];
    const auto& fpart = plan.levels[l].part;
    const auto& cpart = plan.levels[l + 1].part;
    std::vector<std::set<index_t>> ig_neighbors(np, std::set<index_t>{});
    std::vector<real_t> per_part(np, 0.0);
    real_t items = 0;
    for (index_t v = 0; v < fine.num_nodes; ++v) {
      const index_t fp = fpart[std::size_t(v)];
      const index_t cp = cpart[std::size_t(fine.to_coarse[std::size_t(v)])];
      if (fp == cp) continue;
      items += 1;
      per_part[std::size_t(fp)] += 1;
      ig_neighbors[std::size_t(fp)].insert(cp);
      ig_neighbors[std::size_t(cp)].insert(fp);
    }
    plan.levels[l].intergrid_items = items;
    for (real_t pp : per_part)
      plan.levels[l].max_intergrid_items =
          std::max(plan.levels[l].max_intergrid_items, pp);
    for (index_t p = 0; p < nparts; ++p)
      plan.levels[l].intergrid_degree =
          std::max(plan.levels[l].intergrid_degree,
                   index_t(ig_neighbors[std::size_t(p)].size()));
  }
  return plan;
}

bool lines_unbroken(const Level& fine, std::span<const index_t> part) {
  for (const auto& line : fine.lines.lines) {
    for (index_t v : line)
      if (part[std::size_t(v)] != part[std::size_t(line[0])]) return false;
  }
  return true;
}

std::vector<index_t> partition_fine(const Level& fine, index_t nparts,
                                    std::uint64_t seed,
                                    std::span<const real_t> node_work) {
  // Contract implicit lines so partitions never break them (Fig. 6b).
  std::vector<real_t> weights(fine.edges.size());
  for (std::size_t e = 0; e < fine.edges.size(); ++e)
    weights[e] = fine.edge_length[e] > 0
                     ? norm(fine.edge_normal[e]) / fine.edge_length[e]
                     : 0.0;
  const graph::Csr g =
      graph::Csr::from_weighted_edges(fine.num_nodes, fine.edges, weights);
  graph::ContractedGraph cg = graph::contract_lines(g, fine.lines);
  if (!node_work.empty()) {
    std::vector<real_t> w(fine.lines.lines.size(), 0.0);
    for (std::size_t v = 0; v < node_work.size(); ++v)
      w[std::size_t(cg.vertex_to_line[v])] += node_work[v];
    cg.graph.set_vertex_weights(std::move(w));
  }
  graph::PartitionOptions popt;
  popt.seed = seed;
  const auto line_part = graph::partition(cg.graph, nparts, popt);
  return graph::expand_line_partition(cg, line_part);
}

FineGather::FineGather(const Level& fine,
                       const core::ExchangePlanOptions& comm, bool overlap)
    : overlap_(overlap) {
  const bool master = comm.strategy == core::ExchangeStrategy::MasterThread;
  const index_t tpp = master ? index_t(comm.threads_per_process) : 1;
  const index_t members =
      comm.transport != nullptr ? index_t(comm.transport->group_size()) : 1;
  const index_t me =
      comm.transport != nullptr ? index_t(comm.transport->group_rank()) : 0;
  COLUMBIA_REQUIRE(tpp >= 1);
  const index_t nparts = members * tpp;
  const std::size_t np = std::size_t(nparts);

  // Parts balance edge endpoints — the edge sweeps' work, and the measure
  // smp::EdgeOwners balances threads by — rather than node counts: the
  // outer field's nodes carry more edges than the boundary layer's.
  std::vector<real_t> work(std::size_t(fine.num_nodes), 0.0);
  for (const auto& [a, b] : fine.edges) {
    work[std::size_t(a)] += 1;
    work[std::size_t(b)] += 1;
  }
  const std::vector<index_t> part = partition_fine(fine, nparts, 1, work);
  COLUMBIA_REQUIRE(lines_unbroken(fine, part));
  nodes_.assign(np, {});
  for (std::size_t v = 0; v < part.size(); ++v)
    nodes_[std::size_t(part[v])].push_back(index_t(v));
  // The plan maps part p to rank p / tpp and rank r to member r.
  mine_begin_ = me * tpp;
  mine_end_ = mine_begin_ + tpp;
  owned_.assign(part.size(), 0);
  for (index_t p = mine_begin_; p < mine_end_; ++p)
    for (const index_t v : nodes_[std::size_t(p)]) owned_[std::size_t(v)] = 1;

  // Every member's first part requests all rows of the parts on other
  // members (item = slot * 6 + component in the owner's packed array);
  // the other parts request nothing, so each row crosses once per member.
  core::RequestLists reqs(np);
  for (index_t m = 0; m < members; ++m) {
    auto& want = reqs[std::size_t(m * tpp)];
    for (index_t p = 0; p < nparts; ++p) {
      if (p / tpp == m) continue;
      const index_t n = index_t(nodes_[std::size_t(p)].size());
      for (index_t item = 0; item < n * 6; ++item) want.push_back({p, item});
    }
  }
  data_.assign(np, {});
  for (std::size_t p = 0; p < np; ++p) data_[p].resize(nodes_[p].size() * 6);
  plan_ = std::make_unique<core::ExchangePlan>(std::move(reqs), comm);
}

void FineGather::complete(std::vector<State>& rows, GatherPhase phase) {
  if (phase == GatherPhase::Post) {
    for (index_t p = mine_begin_; p < mine_end_; ++p) {
      real_t* d = data_[std::size_t(p)].data();
      for (const index_t v : nodes_[std::size_t(p)])
        for (const real_t x : rows[std::size_t(v)]) *d++ = x;
    }
    if (overlap_)
      plan_->post(data_);
    else
      scatter(plan_->exchange(data_), rows);
  } else if (overlap_) {
    scatter(plan_->finish(), rows);
  }
}

void FineGather::scatter(const core::PartitionData& got,
                         std::vector<State>& rows) {
  // The first part's requests walk the other members' parts in ascending
  // order, six values per node.
  const real_t* x = got[std::size_t(mine_begin_)].data();
  for (index_t p = 0; p < index_t(nodes_.size()); ++p) {
    if (p >= mine_begin_ && p < mine_end_) continue;
    for (const index_t v : nodes_[std::size_t(p)])
      for (real_t& c : rows[std::size_t(v)]) c = *x++;
  }
}

std::vector<State> parallel_residual(const Level& lvl,
                                     const std::vector<State>& u,
                                     const euler::Prim& freestream,
                                     std::span<const index_t> part,
                                     index_t nparts,
                                     const core::ExchangePlanOptions& comm,
                                     bool overlap) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const std::size_t np = std::size_t(nparts);
  COLUMBIA_REQUIRE(part.size() == n);

  // Slot of every node in its owner's packed state array (owned nodes in
  // ascending id order) — the item space both exchange plans address.
  std::vector<index_t> slot(n, 0);
  std::vector<index_t> owned_count(np, 0);
  for (std::size_t v = 0; v < n; ++v) {
    slot[v] = owned_count[std::size_t(part[v])]++;
  }

  // Interior/boundary edge split per rank (Jackson & Campobasso overlap
  // scheme): an owned edge is interior iff its far endpoint is also owned,
  // so the interior list plus every node closure runs without ghost data.
  // Both lists keep ascending edge order; interior always runs first, so
  // the accumulation order is a fixed property of the decomposition, not
  // of whether the exchange was blocking or in flight.
  std::vector<std::vector<index_t>> interior_edges(np), boundary_edges(np);
  std::vector<std::vector<index_t>> owned_nodes(np);
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    const index_t pa = part[std::size_t(a)];
    auto& side = part[std::size_t(b)] == pa ? interior_edges : boundary_edges;
    side[std::size_t(pa)].push_back(index_t(e));
  }
  for (std::size_t v = 0; v < n; ++v)
    owned_nodes[std::size_t(part[v])].push_back(index_t(v));

  // Ghost-state schedule: six components per ghost node, addressed into
  // the owner's packed array. The packed arrays are component-major
  // (component plane c starts at c * owned_count), and the requests are
  // emitted c-major, so consecutive requests against one owner walk a
  // single plane in ascending slot order (unit-stride gather runs).
  const core::RequestLists ghosts = halo_requests(lvl, part, nparts);
  core::RequestLists reqs1(np);
  for (index_t p = 0; p < nparts; ++p) {
    const auto& g = ghosts[std::size_t(p)];
    reqs1[std::size_t(p)].reserve(g.size() * 6);
    for (index_t c = 0; c < 6; ++c)
      for (const core::HaloRequest& r : g)
        reqs1[std::size_t(p)].push_back(
            {r.from_partition,
             c * owned_count[std::size_t(r.from_partition)] +
                 slot[std::size_t(r.item)]});
  }
  core::ExchangePlan plan1(std::move(reqs1), comm);

  // Residual-contribution lists: contrib[p][q] = nodes owned by q whose
  // residual partition p accumulates (p owns cross edges touching them),
  // deduplicated and sorted for deterministic packing.
  std::vector<std::map<index_t, std::vector<index_t>>> contrib(
      np, std::map<index_t, std::vector<index_t>>{});
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    const index_t pa = part[std::size_t(a)];
    const index_t pb = part[std::size_t(b)];
    if (pa == pb) continue;
    // Owner of the edge: pa (a < b by construction); it accumulates b's
    // share and returns it to pb.
    contrib[std::size_t(pa)][pb].push_back(b);
  }
  for (auto& per_rank : contrib)
    for (auto& [q, nodes] : per_rank) {
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    }

  // Contribution buffers are packed per sender in (receiver asc, node asc)
  // order; coff[p][q] = first slot of the block bound for q.
  std::vector<std::map<index_t, index_t>> coff(np);
  std::vector<index_t> contrib_count(np, 0);
  for (index_t p = 0; p < nparts; ++p) {
    index_t off = 0;
    for (const auto& [q, nodes] : contrib[std::size_t(p)]) {
      coff[std::size_t(p)][q] = off;
      off += index_t(nodes.size());
    }
    contrib_count[std::size_t(p)] = off;
  }
  core::RequestLists reqs2(np);
  for (index_t p = 0; p < nparts; ++p)
    for (index_t q = 0; q < nparts; ++q) {
      const auto it = contrib[std::size_t(q)].find(p);
      if (it == contrib[std::size_t(q)].end()) continue;
      const index_t base = coff[std::size_t(q)].at(p);
      for (index_t c = 0; c < 6; ++c)
        for (std::size_t k = 0; k < it->second.size(); ++k)
          reqs2[std::size_t(p)].push_back(
              {q, c * contrib_count[std::size_t(q)] + base + index_t(k)});
    }
  core::ExchangePlan plan2(std::move(reqs2), comm);

  // Per-edge flux accumulation shared by the interior and boundary phases;
  // `state_of` resolves the far endpoint (owned array or ghost scatter).
  auto flux_edge = [&](std::size_t e, auto&& state_of, auto&& prim_of,
                       std::vector<State>& res) {
    const auto [a, b] = lvl.edges[e];
    const real_t area = norm(lvl.edge_normal[e]);
    if (area <= 0) return;
    const Vec3 nh = lvl.edge_normal[e] / area;
    const euler::Prim wl = prim_of(a);
    const euler::Prim wr = prim_of(b);
    const euler::Cons flux =
        euler::numerical_flux(wl, wr, nh, euler::FluxScheme::Roe);
    const real_t mdot = flux[0] * area;
    const real_t nut_l = state_of(a)[5] / wl.rho;
    const real_t nut_r = state_of(b)[5] / wr.rho;
    const real_t fnut = mdot * (mdot >= 0 ? nut_l : nut_r);
    for (int c = 0; c < 5; ++c) {
      res[std::size_t(a)][std::size_t(c)] += area * flux[std::size_t(c)];
      res[std::size_t(b)][std::size_t(c)] -= area * flux[std::size_t(c)];
    }
    res[std::size_t(a)][5] += fnut;
    res[std::size_t(b)][5] -= fnut;
  };

  // Phase 1: pack owned states and post the ghost fetch (one packed
  // message per neighbor pair). In blocking mode the exchange completes
  // here; in overlap mode it completes after the interior phase. The
  // compute sequence is identical either way.
  core::PartitionData state_data(np);
  for (index_t p = 0; p < nparts; ++p)
    state_data[std::size_t(p)].resize(std::size_t(owned_count[std::size_t(p)]) * 6);
  for (std::size_t c = 0; c < 6; ++c)
    for (std::size_t v = 0; v < n; ++v)
      state_data[std::size_t(part[v])]
                [c * std::size_t(owned_count[std::size_t(part[v])]) +
                 std::size_t(slot[v])] = u[v][c];
  plan1.post(state_data);
  const core::PartitionData* ghost_vals = overlap ? nullptr : &plan1.finish();

  // Phase 2a (interior): flux accumulation over owned interior edges and
  // the node-local boundary closures, one rank per partition on the thread
  // pool. Touches no ghost data, so it runs while the exchange is in
  // flight. Interior edges owned by other ranks but touching my nodes are
  // accumulated remotely and returned through plan2 below.
  std::vector<std::vector<State>> res_of(np);
  smp::ThreadPool::global().parallel_for(
      0, np, 1, [&](std::size_t pb, std::size_t pe, int) {
        // Level-tagged interior compute: the comm observatory's overlap
        // analyzer measures this span against the halo.xchg waits on the
        // same level to report coverable headroom.
        OBS_SPAN("nsu3d.partitioned.compute", "level",
                 std::int64_t(comm.level));
        for (std::size_t mep = pb; mep < pe; ++mep) {
          auto owned_state = [&](index_t v) -> const State& {
            return u[std::size_t(v)];
          };
          auto owned_prim = [&](index_t v) {
            const State& s = u[std::size_t(v)];
            const real_t inv = 1.0 / s[0];
            const Vec3 vel{s[1] * inv, s[2] * inv, s[3] * inv};
            const real_t p =
                (euler::kGamma - 1) * (s[4] - 0.5 * s[0] * dot(vel, vel));
            return euler::Prim{s[0], vel, p};
          };

          std::vector<State> res(n, State{});
          for (const index_t e : interior_edges[mep])
            flux_edge(std::size_t(e), owned_state, owned_prim, res);
          for (const index_t v : owned_nodes[mep]) {
            const euler::Prim w = owned_prim(v);
            const Vec3& fn = lvl.boundary_normal[std::size_t(v)]
                                                [std::size_t(mesh::BoundaryTag::Farfield)];
            const real_t fa = norm(fn);
            if (fa > 0) {
              const euler::Cons flux = euler::farfield_flux(
                  w, freestream, fn / fa, euler::FluxScheme::Roe);
              for (int c = 0; c < 5; ++c)
                res[std::size_t(v)][std::size_t(c)] += fa * flux[std::size_t(c)];
              const real_t mdot = flux[0] * fa;
              res[std::size_t(v)][5] +=
                  mdot * (mdot >= 0 ? u[std::size_t(v)][5] / w.rho : 0.0);
            }
            for (mesh::BoundaryTag tag :
                 {mesh::BoundaryTag::Wall, mesh::BoundaryTag::Symmetry}) {
              const Vec3& bn =
                  lvl.boundary_normal[std::size_t(v)][std::size_t(tag)];
              if (dot(bn, bn) > 0) {
                const euler::Cons flux = euler::wall_flux(w, bn);
                for (int c = 0; c < 5; ++c)
                  res[std::size_t(v)][std::size_t(c)] += flux[std::size_t(c)];
              }
            }
          }
          res_of[mep] = std::move(res);
        }
      });

  // Overlap mode: the interior work is done — now wait out the exchange.
  if (overlap) ghost_vals = &plan1.finish();

  // Phase 2b (boundary): scatter each rank's ghost block and accumulate
  // the halo-adjacent edges, in the same ascending edge order as 2a.
  smp::ThreadPool::global().parallel_for(
      0, np, 1, [&](std::size_t pb, std::size_t pe, int) {
        OBS_SPAN("nsu3d.partitioned.compute", "level",
                 std::int64_t(comm.level));
        for (std::size_t mep = pb; mep < pe; ++mep) {
          const index_t me = index_t(mep);
          std::vector<State> ghost(n, State{});  // sparse by construction
          const auto& g = ghosts[mep];
          const auto& got = (*ghost_vals)[mep];
          for (std::size_t c = 0; c < 6; ++c)
            for (std::size_t k = 0; k < g.size(); ++k)
              ghost[std::size_t(g[k].item)][c] = got[c * g.size() + k];

          auto state_of = [&](index_t v) -> const State& {
            return part[std::size_t(v)] == me ? u[std::size_t(v)]
                                              : ghost[std::size_t(v)];
          };
          auto prim_of = [&](index_t v) {
            const State& s = state_of(v);
            const real_t inv = 1.0 / s[0];
            const Vec3 vel{s[1] * inv, s[2] * inv, s[3] * inv};
            const real_t p =
                (euler::kGamma - 1) * (s[4] - 0.5 * s[0] * dot(vel, vel));
            return euler::Prim{s[0], vel, p};
          };

          auto& res = res_of[mep];
          for (const index_t e : boundary_edges[mep])
            flux_edge(std::size_t(e), state_of, prim_of, res);
        }
      });

  // Phase 3: return ghost-vertex residual contributions to their owners
  // (the packed send of Fig. 6a's accumulate step) through the second
  // plan; the owned-row copy is the interior work that hides the return
  // trip in overlap mode.
  core::PartitionData contrib_data(np);
  for (index_t p = 0; p < nparts; ++p) {
    auto& buf = contrib_data[std::size_t(p)];
    buf.resize(std::size_t(contrib_count[std::size_t(p)]) * 6);
    std::size_t w = 0;
    for (std::size_t c = 0; c < 6; ++c)
      for (const auto& [q, nodes] : contrib[std::size_t(p)])
        for (index_t v : nodes)
          buf[w++] = res_of[std::size_t(p)][std::size_t(v)][c];
  }
  plan2.post(contrib_data);
  const core::PartitionData* returned = overlap ? nullptr : &plan2.finish();

  std::vector<State> result(n, State{});
  for (std::size_t v = 0; v < n; ++v)
    result[v] = res_of[std::size_t(part[v])][v];
  if (overlap) returned = &plan2.finish();

  for (index_t p = 0; p < nparts; ++p) {
    const auto& got = (*returned)[std::size_t(p)];
    std::size_t k = 0;
    for (index_t q = 0; q < nparts; ++q) {
      const auto it = contrib[std::size_t(q)].find(p);
      if (it == contrib[std::size_t(q)].end()) continue;
      // c-major to match the request emission; per (node, component)
      // element the adds still arrive in ascending-q order, so the
      // assembled sums are bit-identical to the node-major packing.
      for (std::size_t c = 0; c < 6; ++c)
        for (index_t v : it->second)
          result[std::size_t(v)][c] += got[k++];
    }
  }
  return result;
}

}  // namespace columbia::nsu3d
