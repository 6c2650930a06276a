// Icosahedral triangular grid — the GRIST atmosphere mesh.
//
// Subdividing each edge of an icosahedron n times and projecting to the
// sphere yields V = 10n²+2 vertices, E = 30n² edges, F = 20n² triangular
// cells. Table 1 of the paper shows exactly this cell:edge:vertex ≈ 2:3:1
// signature (1 km: 3.4e8 cells, 5.0e8 edges, 1.7e8 vertices).
//
// Full geometry (coordinates, areas, adjacency) is generated for the small
// meshes the mini-model integrates; for the paper-scale meshes only the
// counts are needed (the perf model works from counts), available through
// IcosaCounts without allocating anything.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ap3::grid {

/// Closed-form mesh cardinalities for subdivision count n (no allocation).
struct IcosaCounts {
  std::int64_t n = 0;
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::int64_t cells = 0;

  static IcosaCounts for_n(std::int64_t n) {
    return {n, 10 * n * n + 2, 30 * n * n, 20 * n * n};
  }
  /// Smallest n whose mean cell spacing is at or below `km`.
  static IcosaCounts for_resolution_km(double km);
  /// GRIST's resolution labels (Table 1): the "1 km" grid has 3.4e8 cells,
  /// i.e. n ≈ 4123; labels scale inversely. Use this to reproduce the
  /// paper's configurations rather than the mean-spacing definition.
  static IcosaCounts for_grist_label_km(double km);
  /// Mean cell spacing in km for subdivision n.
  static double resolution_km(std::int64_t n);
};

/// A point on the unit sphere.
struct SpherePoint {
  double x = 0, y = 0, z = 0;
  double lon() const;  ///< radians, [-pi, pi]
  double lat() const;  ///< radians, [-pi/2, pi/2]
};

/// Fully realized icosahedral mesh (small n only; O(n²) memory).
class IcosahedralGrid {
 public:
  /// Build the subdivision-n mesh. n >= 1; n <= ~512 is practical here.
  explicit IcosahedralGrid(int n);

  int n() const { return n_; }
  std::size_t num_vertices() const { return vertices_.size(); }
  std::size_t num_cells() const { return cell_vertices_.size(); }
  std::size_t num_edges() const { return edge_vertices_.size(); }

  const SpherePoint& vertex(std::size_t v) const { return vertices_[v]; }
  /// Cell centroid projected to the sphere.
  const SpherePoint& cell_center(std::size_t c) const { return centers_[c]; }
  /// Spherical triangle area (steradians; sums to 4π over the mesh).
  double cell_area(std::size_t c) const { return areas_[c]; }

  const std::array<std::uint32_t, 2>& edge_vertex_ids(std::size_t e) const {
    return edge_vertices_[e];
  }
  /// The (up to) 2 cells flanking an edge (boundary-free mesh: always 2).
  const std::array<std::uint32_t, 2>& edge_cell_ids(std::size_t e) const {
    return edge_cells_[e];
  }
  /// The 3 edge ids of a cell.
  const std::array<std::uint32_t, 3>& cell_edge_ids(std::size_t c) const {
    return cell_edges_[c];
  }
  /// The 3 neighbor cells across each edge of cell c.
  std::array<std::uint32_t, 3> cell_neighbors(std::size_t c) const;

  /// Great-circle distance between two unit-sphere points (radians).
  static double arc(const SpherePoint& a, const SpherePoint& b);

  /// Mean cell spacing in km (sqrt of mean cell area on the Earth sphere).
  double mean_spacing_km() const;

  /// Bytes held by the realized geometry and adjacency tables.
  std::size_t resident_bytes() const {
    return vertices_.size() * sizeof(SpherePoint) +
           centers_.size() * sizeof(SpherePoint) +
           areas_.size() * sizeof(double) +
           cell_vertices_.size() * sizeof(std::array<std::uint32_t, 3>) +
           edge_vertices_.size() * sizeof(std::array<std::uint32_t, 2>) +
           edge_cells_.size() * sizeof(std::array<std::uint32_t, 2>) +
           cell_edges_.size() * sizeof(std::array<std::uint32_t, 3>);
  }

 private:
  void build(int n);
  int n_;
  std::vector<SpherePoint> vertices_;
  std::vector<SpherePoint> centers_;
  std::vector<double> areas_;
  std::vector<std::array<std::uint32_t, 3>> cell_vertices_;
  std::vector<std::array<std::uint32_t, 2>> edge_vertices_;
  std::vector<std::array<std::uint32_t, 2>> edge_cells_;
  std::vector<std::array<std::uint32_t, 3>> cell_edges_;
};

}  // namespace ap3::grid
