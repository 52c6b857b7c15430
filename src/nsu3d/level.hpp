// Multigrid level data for the agglomeration hierarchy.
//
// Level 0 carries the true median-dual metrics of the unstructured mesh;
// coarser levels are built by recursive agglomeration (paper Figs. 2-3):
// coarse control volumes are unions of fine ones, coarse edge normals are
// the accumulated fine dual-face areas across agglomerate boundaries, and
// boundary closures sum. The edge-based residual loop therefore runs
// unchanged on every level.
#pragma once

#include <array>
#include <vector>

#include "geom/vec3.hpp"
#include "graph/lines.hpp"
#include "mesh/dual_metrics.hpp"
#include "mesh/unstructured.hpp"
#include "support/types.hpp"

namespace columbia::nsu3d {

struct Level {
  index_t num_nodes = 0;
  std::vector<std::pair<index_t, index_t>> edges;  // a < b
  std::vector<geom::Vec3> edge_normal;             // oriented a -> b
  std::vector<real_t> edge_length;                 // |x_b - x_a| proxy

  /// Edges are stored color-major (paper Sec. III colors the edge loop):
  /// sorted by graph color, so consecutive edges rarely share a node. The
  /// threaded sweeps no longer rely on the colors — each node is written
  /// by one owner task in ascending edge order (smp::EdgeOwners), so
  /// results are bit-identical for any thread count with or without the
  /// sort — but the sort stays the storage order so histories match those
  /// computed before.

  /// Per-edge geometry precomputed once at level construction (the seed
  /// recomputed norms/normalizations/pow per edge per sweep):
  std::vector<real_t> edge_area;      // |edge_normal|
  std::vector<geom::Vec3> edge_unit;  // edge_normal / area (0 if degenerate)
  std::vector<geom::Vec3> edge_dab;   // 0.5 * (center_b - center_a)
  std::vector<real_t> edge_eps2;      // Venkatakrishnan (0.3 h)^3
  /// SoA mirror of the edge topology/geometry for the vectorized kernel
  /// layer (nsu3d/kernels.*): endpoint indices and the normal / unit-normal
  /// / half-offset components as contiguous per-component arrays. Values
  /// are bitwise-identical copies of the AoS fields above; `edge_geo` is
  /// the viscous metric area/length (0 when either vanishes), computed
  /// with the same division the flux sweep previously performed per edge.
  std::vector<index_t> edge_a, edge_b;
  std::vector<real_t> edge_nx, edge_ny, edge_nz;
  std::vector<real_t> edge_ux, edge_uy, edge_uz;
  std::vector<real_t> edge_dx, edge_dy, edge_dz;
  std::vector<real_t> edge_geo;
  std::vector<real_t> node_volume;
  /// 1 / max(node_volume, 1e-300): the gradient normalization factor. The
  /// scalar path divides a Vec3 by max(vol, 1e-300), which geom::Vec3
  /// implements as multiplication by the reciprocal — precomputing that
  /// reciprocal once is bitwise-identical.
  std::vector<real_t> inv_volume;
  std::vector<geom::Vec3> node_center;             // volume centroid proxy
  /// Outward boundary closure per node, per BoundaryTag (Wall/Farfield/Sym).
  std::vector<std::array<geom::Vec3, 3>> boundary_normal;
  std::vector<real_t> wall_distance;

  /// Implicit line set (fine level only has meaningful multi-node lines;
  /// coarse levels carry singleton lines).
  graph::LineSet lines;
  /// For each node, index of its line and position within the line.
  std::vector<index_t> line_of_node;
  std::vector<index_t> pos_in_line;

  /// Map to the next coarser level (empty on the coarsest).
  std::vector<index_t> to_coarse;

  /// Per-node incident edge lists (edge id, +1 if node is 'a' else -1).
  std::vector<std::vector<std::pair<index_t, real_t>>> incident;

  /// For line k, entry j is the (edge id, sign) connecting line[j] to
  /// line[j+1] (sign +1 when line[j] is the edge's 'a' endpoint), or
  /// (kInvalidIndex, 0) when no such edge exists. Precomputed so the
  /// block-tridiagonal assembly does not search `incident` every sweep.
  std::vector<std::vector<std::pair<index_t, real_t>>> line_edges;

  void build_incident();
  void build_line_edges();

  /// Colors + reorders the edge arrays color-major (when `color` is set),
  /// precomputes the per-edge geometry, and (re)builds `incident`. Must
  /// run after edges/normals/lengths/centers are final.
  void finalize_edges(bool color);

  bool is_wall_node(index_t v) const {
    const geom::Vec3& n =
        boundary_normal[std::size_t(v)][std::size_t(mesh::BoundaryTag::Wall)];
    return dot(n, n) > 0;
  }
};

struct LevelOptions {
  int num_levels = 4;
  /// Edge-coupling ratio above which an edge joins an implicit line.
  real_t line_threshold = 4.0;
  /// Store edges color-major (the storage order of every recorded
  /// history). Either order is bit-identical across thread counts.
  bool color_edges = true;
};

/// Builds the hierarchy: level 0 from the mesh's dual metrics, coarser
/// levels by agglomerating the coupling-weighted graph.
std::vector<Level> build_levels(const mesh::UnstructuredMesh& m,
                                const LevelOptions& opt);

}  // namespace columbia::nsu3d
