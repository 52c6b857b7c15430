// Domain decomposition for the multigrid hierarchy.
//
// Paper Sec. III: each fine and coarse agglomerated level's adjacency graph
// is partitioned independently (METIS in the paper; graph::partition here),
// with the fine-level graph contracted along implicit lines so no line is
// ever broken across a partition boundary (Fig. 6b). Coarse partitions are
// then relabeled to maximally overlap the fine partitions. Edges straddling
// partitions get ghost vertices (Fig. 6a); the halo exchange packs all
// values destined for one neighbor into a single message.
//
// The same analysis produces, for every level, the work and communication
// quantities the Columbia machine model consumes: per-partition work, halo
// sizes, communication-graph degree, and the inter-grid transfer volume.
#pragma once

#include <memory>
#include <vector>

#include "core/exchange_plan.hpp"
#include "nsu3d/level.hpp"
#include "nsu3d/solver.hpp"

namespace columbia::nsu3d {

/// Per-level communication/work statistics for a P-way decomposition.
struct LevelDecomposition {
  index_t nparts = 0;
  std::vector<index_t> part;      // per node
  real_t max_part_nodes = 0;
  real_t avg_part_nodes = 0;
  index_t empty_parts = 0;        // paper Sec. VI: occurs on coarse levels
  /// Halo exchange: per-part ghost counts (values received per exchange).
  real_t max_ghost_nodes = 0;
  real_t total_ghost_nodes = 0;
  /// Degree of the partition communication graph (paper: max 18 fine).
  index_t max_comm_degree = 0;
  /// Inter-grid transfer to the next coarser level: number of fine nodes
  /// whose agglomerate lives on another partition (paper: degree <= 19).
  real_t intergrid_items = 0;       // total across partitions
  real_t max_intergrid_items = 0;   // busiest partition
  index_t intergrid_degree = 0;
};

struct PartitionPlan {
  index_t nparts = 0;
  std::vector<LevelDecomposition> levels;
};

/// Partitions every level of the hierarchy for `nparts` processors.
PartitionPlan build_partition_plan(const std::vector<Level>& levels,
                                   index_t nparts, std::uint64_t seed = 1);

/// Verifies that no implicit line of the fine level is split by the plan.
bool lines_unbroken(const Level& fine, std::span<const index_t> part);

/// Line-respecting partition of the fine level: graph::partition on the
/// line-contracted graph (Fig. 6b), one part id per node. A line weighs
/// the sum of its nodes' `node_work` (empty = one per node).
std::vector<index_t> partition_fine(const Level& fine, index_t nparts,
                                    std::uint64_t seed = 1,
                                    std::span<const real_t> node_work = {});

/// Owner-computes fine level over a transport group: the partition, the
/// owned-node mask and the gather behind Nsu3dSolver::own_fine_nodes.
///
/// Level 0 is split into line-respecting parts — one per member for
/// ThreadToThread, members x threads_per_process for MasterThread — and
/// this member owns the parts the exchange plan maps to it. One
/// core::ExchangePlan moves state or residual rows: the member's first
/// part requests every row of every part it does not own, six values per
/// node, so the wire carries the solve itself and its bytes are the only
/// source of the foreign rows.
class FineGather {
 public:
  /// `comm.transport` is the group (nullptr = a group of one); `overlap`
  /// splits each exchange between the Post and Finish phases, otherwise
  /// Post runs it whole.
  FineGather(const Level& fine, const core::ExchangePlanOptions& comm,
             bool overlap);

  /// owned()[v] != 0 for the fine nodes this member computes.
  const std::vector<char>& owned() const { return owned_; }
  index_t num_parts() const { return index_t(nodes_.size()); }
  const core::ExchangePlan& plan() const { return *plan_; }

  /// The solver's complete callback: Post packs this member's rows and
  /// sends them; Finish receives and writes every row it does not own.
  void complete(std::vector<State>& rows, GatherPhase phase);

 private:
  void scatter(const core::PartitionData& got, std::vector<State>& rows);

  bool overlap_;
  std::vector<char> owned_;
  std::vector<std::vector<index_t>> nodes_;  // per part, ascending ids
  /// This member's parts; the first one requests every foreign row.
  index_t mine_begin_ = 0, mine_end_ = 0;
  core::PartitionData data_;                 // per part, 6 values per node
  std::unique_ptr<core::ExchangePlan> plan_;
};

/// Ghost-state request lists of a level decomposition: for each partition,
/// the unique cross-partition edge endpoints it needs each exchange,
/// sorted by (owner, node) for deterministic packing. `item` is the
/// global node id (callers that exchange packed per-partition arrays
/// remap items onto their own slot layout).
core::RequestLists halo_requests(const Level& lvl,
                                 std::span<const index_t> part,
                                 index_t nparts);

/// Parallel first-order residual evaluation: partitions owned nodes per
/// rank, fetches ghost states through a core::ExchangePlan (one packed
/// message per neighbor pair, as in the paper), accumulates edge fluxes
/// rank-local on the thread pool, then returns ghost contributions
/// through a second plan. Used to validate the halo machinery: the result
/// must match the serial residual bit-for-bit up to summation order, with
/// either exchange strategy and with halo fault injection on or off.
///
/// The per-rank edge loop is split at plan-build time into interior edges
/// (both endpoints owned — no ghost state touched) and boundary edges
/// (halo-adjacent), always run interior-first. With `overlap` set, the
/// ghost exchange flies under the interior loop (post → interior compute →
/// finish → boundary compute) and the contribution return flies under the
/// owned-row assembly. Both modes execute the identical floating-point
/// sequence — only the moment the wire completes differs — so overlap
/// on/off results are bit-identical by construction (DESIGN.md, "The
/// interior/boundary split invariant").
std::vector<State> parallel_residual(const Level& lvl,
                                     const std::vector<State>& u,
                                     const euler::Prim& freestream,
                                     std::span<const index_t> part,
                                     index_t nparts,
                                     const core::ExchangePlanOptions& comm = {},
                                     bool overlap = false);

}  // namespace columbia::nsu3d
