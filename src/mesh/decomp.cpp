#include "mesh/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace igr::mesh {

Face opposite(Face f) {
  const int v = static_cast<int>(f);
  return static_cast<Face>(v ^ 1);
}

Decomp::Decomp(const Grid& grid, int rx, int ry, int rz,
               std::array<bool, 3> periodic)
    : grid_(&grid), rx_(rx), ry_(ry), rz_(rz), periodic_(periodic) {
  if (rx < 1 || ry < 1 || rz < 1)
    throw std::invalid_argument("Decomp: rank counts must be positive");
  if (rx > grid.nx() || ry > grid.ny() || rz > grid.nz())
    throw std::invalid_argument("Decomp: more ranks than cells along an axis");
}

std::array<int, 3> Decomp::balanced_layout(int ranks) {
  if (ranks < 1) throw std::invalid_argument("balanced_layout: ranks < 1");
  std::array<int, 3> best{ranks, 1, 1};
  double best_score = 1.0e300;
  for (int a = 1; a <= ranks; ++a) {
    if (ranks % a != 0) continue;
    const int bc = ranks / a;
    for (int b = 1; b <= bc; ++b) {
      if (bc % b != 0) continue;
      const int c = bc / b;
      // Surface-to-volume proxy for a unit cube split a x b x c.
      const double score = 1.0 / a + 1.0 / b + 1.0 / c;
      if (score < best_score) {
        best_score = score;
        best = {a, b, c};
      }
    }
  }
  // Sort descending so the fastest-varying axis gets the most ranks.
  std::sort(best.begin(), best.end(), std::greater<>());
  return best;
}

int Decomp::rank_of(int cx, int cy, int cz) const {
  return (cz * ry_ + cy) * rx_ + cx;
}

std::array<int, 3> Decomp::coords_of(int rank) const {
  const int cx = rank % rx_;
  const int cy = (rank / rx_) % ry_;
  const int cz = rank / (rx_ * ry_);
  return {cx, cy, cz};
}

int Decomp::split_lo(int n, int parts, int idx) {
  const int base = n / parts;
  const int rem = n % parts;
  return idx * base + std::min(idx, rem);
}

int Decomp::split_n(int n, int parts, int idx) {
  const int base = n / parts;
  const int rem = n % parts;
  return base + (idx < rem ? 1 : 0);
}

LocalBlock Decomp::block(int rank) const {
  const auto c = coords_of(rank);
  LocalBlock b;
  b.lo = {split_lo(grid_->nx(), rx_, c[0]), split_lo(grid_->ny(), ry_, c[1]),
          split_lo(grid_->nz(), rz_, c[2])};
  b.n = {split_n(grid_->nx(), rx_, c[0]), split_n(grid_->ny(), ry_, c[1]),
         split_n(grid_->nz(), rz_, c[2])};
  return b;
}

int Decomp::neighbor(int rank, Face face) const {
  auto c = coords_of(rank);
  const int axis = static_cast<int>(face) / 2;
  const int dir = (static_cast<int>(face) % 2 == 0) ? -1 : +1;
  const std::array<int, 3> dims{rx_, ry_, rz_};
  int v = c[static_cast<std::size_t>(axis)] + dir;
  if (v < 0 || v >= dims[static_cast<std::size_t>(axis)]) {
    if (!periodic_[static_cast<std::size_t>(axis)]) return -1;
    v = (v + dims[static_cast<std::size_t>(axis)]) %
        dims[static_cast<std::size_t>(axis)];
  }
  c[static_cast<std::size_t>(axis)] = v;
  return rank_of(c[0], c[1], c[2]);
}

int Decomp::owner_coord(int axis, int gcell) const {
  const std::array<int, 3> dims{rx_, ry_, rz_};
  const std::array<int, 3> cells{grid_->nx(), grid_->ny(), grid_->nz()};
  const int n = cells[static_cast<std::size_t>(axis)];
  const int p = dims[static_cast<std::size_t>(axis)];
  if (gcell < 0 || gcell >= n)
    throw std::invalid_argument("owner_coord: cell outside the global grid");
  // Blocks of size base+1 for coords < rem, size base after.
  const int base = n / p;
  const int rem = n % p;
  const int big_span = rem * (base + 1);
  if (gcell < big_span) return gcell / (base + 1);
  return rem + (gcell - big_span) / base;
}

std::size_t Decomp::halo_cells(int rank, Face face, int ng) const {
  const auto b = block(rank);
  const int axis = static_cast<int>(face) / 2;
  std::size_t area = 1;
  for (int a = 0; a < 3; ++a) {
    if (a != axis) area *= static_cast<std::size_t>(b.n[static_cast<std::size_t>(a)]);
  }
  return area * static_cast<std::size_t>(ng);
}

}  // namespace igr::mesh
