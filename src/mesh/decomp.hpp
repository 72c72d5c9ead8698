#pragma once
/// \file decomp.hpp
/// 3-D Cartesian domain decomposition.  Maps ranks to subdomain coordinates
/// and local extents; used both by the in-process simulated communicator
/// (src/sim) and by the scaling performance model (src/perf).

#include <array>
#include <cstddef>
#include <vector>

#include "mesh/grid.hpp"

namespace igr::mesh {

/// Face identifiers for neighbor lookup and halo exchange.
enum class Face : int { kXLo = 0, kXHi, kYLo, kYHi, kZLo, kZHi };
inline constexpr int kNumFaces = 6;

/// Opposite face (kXLo <-> kXHi, ...).
Face opposite(Face f);

/// Local block of a decomposed global grid.
struct LocalBlock {
  std::array<int, 3> lo{};   ///< Global index of first interior cell.
  std::array<int, 3> n{};    ///< Local interior cell counts.
};

/// Rank layout on a 3-D process grid.
class Decomp {
 public:
  /// Decompose `grid` over rx*ry*rz ranks.  An axis need not divide evenly:
  /// with n cells split over p ranks, every rank gets floor(n/p) cells and
  /// the remainder n mod p is handed out one extra cell each to the (n mod p)
  /// lowest-coordinate ranks — so low-coordinate blocks are at most one cell
  /// larger than high-coordinate ones.  Rank counts above the cell count of
  /// an axis are rejected (a rank must own at least one cell).  `periodic`
  /// says per axis whether the process grid wraps across the domain
  /// boundary; the bool form applies one value to all three axes.
  Decomp(const Grid& grid, int rx, int ry, int rz,
         std::array<bool, 3> periodic);
  Decomp(const Grid& grid, int rx, int ry, int rz, bool periodic = true)
      : Decomp(grid, rx, ry, rz, {periodic, periodic, periodic}) {}

  /// Choose a near-cubic process grid for `ranks` ranks (factorization that
  /// minimizes surface-to-volume of local blocks).
  static std::array<int, 3> balanced_layout(int ranks);

  [[nodiscard]] int ranks() const { return rx_ * ry_ * rz_; }
  [[nodiscard]] std::array<int, 3> layout() const { return {rx_, ry_, rz_}; }
  [[nodiscard]] bool periodic(int axis) const {
    return periodic_[static_cast<std::size_t>(axis)];
  }

  /// Rank id from process-grid coordinates.
  [[nodiscard]] int rank_of(int cx, int cy, int cz) const;
  /// Process-grid coordinates of a rank.
  [[nodiscard]] std::array<int, 3> coords_of(int rank) const;

  /// Local interior block of `rank` within the global grid.
  [[nodiscard]] LocalBlock block(int rank) const;

  /// Neighbor rank across `face`, or -1 at a physical boundary of a
  /// non-periodic axis.
  [[nodiscard]] int neighbor(int rank, Face face) const;

  /// Halo message size in cells for one face exchange with `ng` ghost layers.
  [[nodiscard]] std::size_t halo_cells(int rank, Face face, int ng) const;

  /// Process-grid coordinate along `axis` of the rank owning global cell
  /// `gcell` (0 <= gcell < grid extent along that axis).  Inverts the
  /// remainder-to-low-ranks split; halo exchange uses it to resolve the
  /// owner of a ghost plane even when blocks are thinner than the ghost
  /// depth (multi-hop halos).
  [[nodiscard]] int owner_coord(int axis, int gcell) const;

 private:
  [[nodiscard]] static int split_lo(int n, int parts, int idx);
  [[nodiscard]] static int split_n(int n, int parts, int idx);

  const Grid* grid_ = nullptr;
  int rx_ = 1, ry_ = 1, rz_ = 1;
  std::array<bool, 3> periodic_{true, true, true};
};

}  // namespace igr::mesh
