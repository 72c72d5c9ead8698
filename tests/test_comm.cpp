/// Tests for the simulated communicator: halo exchange correctness against
/// the single-domain ghost fill, traffic metering, and local grids.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "eos/ideal_gas.hpp"
#include "fv/bc.hpp"
#include "sim/comm.hpp"

namespace {

using igr::common::Field3;
using igr::common::kNumVars;
using igr::common::StateField3;
using igr::mesh::Grid;
using igr::sim::Comm;

constexpr int kN = 12;
constexpr int kNg = 3;

double cell_value(int gi, int gj, int gk) {
  return 1.0 * gi + 100.0 * gj + 10000.0 * gk;
}

TEST(Comm, LocalGridsTileTheGlobalDomain) {
  const auto g = Grid(kN, kN, kN, {0.0, 3.0}, {0.0, 3.0}, {0.0, 3.0});
  Comm comm(g, 2, 2, 1, true);
  double vol = 0.0;
  for (int r = 0; r < comm.ranks(); ++r) {
    const auto lg = comm.local_grid(r);
    vol += lg.lx() * lg.ly() * lg.lz();
    EXPECT_DOUBLE_EQ(lg.dx(), g.dx());
  }
  EXPECT_NEAR(vol, 27.0, 1e-12);
}

TEST(Comm, LocalGridCoordinatesAreGlobal) {
  const auto g = Grid::cube(kN);
  Comm comm(g, 2, 1, 1, true);
  const auto lg1 = comm.local_grid(1);
  // Rank 1 starts at global cell kN/2 along x.
  EXPECT_NEAR(lg1.x(0), g.x(kN / 2), 1e-14);
}

/// Scatter a globally indexed field into per-rank blocks.
std::vector<Field3<double>> scatter(const Comm& comm) {
  std::vector<Field3<double>> blocks;
  for (int r = 0; r < comm.ranks(); ++r) {
    const auto b = comm.decomp().block(r);
    Field3<double> f(b.n[0], b.n[1], b.n[2], kNg);
    for (int k = 0; k < b.n[2]; ++k)
      for (int j = 0; j < b.n[1]; ++j)
        for (int i = 0; i < b.n[0]; ++i)
          f(i, j, k) = cell_value(b.lo[0] + i, b.lo[1] + j, b.lo[2] + k);
    blocks.push_back(std::move(f));
  }
  return blocks;
}

/// Lockstep halo exchange of one field per rank along one axis (x=0, y=1,
/// z=2): post every rank, then complete every rank, on the Sigma channel.
template <class T>
void halo_exchange_axis(const Comm& comm,
                        const std::vector<Field3<T>*>& fields, int axis) {
  for (int r = 0; r < comm.ranks(); ++r) {
    const Field3<T>* f = fields[static_cast<std::size_t>(r)];
    comm.post_axis(Comm::kChanSigma, r, &f, 1, axis);
  }
  for (int r = 0; r < comm.ranks(); ++r) {
    Field3<T>* f = fields[static_cast<std::size_t>(r)];
    ASSERT_TRUE(comm.complete_axis(Comm::kChanSigma, r, &f, 1, axis));
  }
}

/// All three axes in x, y, z order with widening tangential extents — the
/// single-domain ghost-fill ordering, so corner ghosts coincide.
template <class T>
void halo_exchange(const Comm& comm, const std::vector<Field3<T>*>& fields) {
  for (int axis = 0; axis < 3; ++axis) halo_exchange_axis(comm, fields, axis);
}

TEST(Comm, ExchangeFillsInteriorFaceGhosts) {
  const auto g = Grid::cube(kN);
  Comm comm(g, 2, 2, 1, true);
  auto blocks = scatter(comm);
  std::vector<Field3<double>*> ptrs;
  for (auto& b : blocks) ptrs.push_back(&b);
  halo_exchange(comm, ptrs);

  // Rank 0's x-high ghosts must hold rank 1's first interior cells.
  const auto b0 = comm.decomp().block(0);
  for (int gl = 0; gl < kNg; ++gl)
    for (int k = 0; k < b0.n[2]; ++k)
      for (int j = 0; j < b0.n[1]; ++j)
        EXPECT_EQ(blocks[0](b0.n[0] + gl, j, k),
                  cell_value(b0.n[0] + gl, j, k));
}

TEST(Comm, PeriodicWrapAcrossDomainBoundary) {
  const auto g = Grid::cube(kN);
  Comm comm(g, 2, 1, 1, true);
  auto blocks = scatter(comm);
  std::vector<Field3<double>*> ptrs;
  for (auto& b : blocks) ptrs.push_back(&b);
  halo_exchange(comm, ptrs);
  // Rank 0's x-low ghosts wrap to rank 1's last interior cells.
  EXPECT_EQ(blocks[0](-1, 2, 2), cell_value(kN - 1, 2, 2));
  EXPECT_EQ(blocks[0](-3, 2, 2), cell_value(kN - 3, 2, 2));
}

TEST(Comm, SingleRankSelfExchangeEqualsPeriodicFill) {
  // With one rank the exchange must reproduce exactly what the single-domain
  // periodic ghost fill produces — the bitwise-equivalence cornerstone.
  const auto g = Grid::cube(kN);
  Comm comm(g, 1, 1, 1, true);

  StateField3<double> qa(kN, kN, kN, kNg), qb(kN, kN, kN, kNg);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i) {
          const double v = cell_value(i, j, k) + 7.0 * c;
          qa[c](i, j, k) = v;
          qb[c](i, j, k) = v;
        }

  igr::eos::IdealGas eos(1.4);
  igr::fv::apply_bc(qa, igr::fv::BcSpec::all_periodic(), g, eos);
  // One full axis sweep per component, like the single-domain fill.
  for (int c = 0; c < kNumVars; ++c) halo_exchange<double>(comm, {&qb[c]});

  for (int c = 0; c < kNumVars; ++c)
    for (int k = -kNg; k < kN + kNg; ++k)
      for (int j = -kNg; j < kN + kNg; ++j)
        for (int i = -kNg; i < kN + kNg; ++i)
          ASSERT_EQ(qa[c](i, j, k), qb[c](i, j, k))
              << c << " " << i << " " << j << " " << k;
}

TEST(Comm, DecomposedExchangeMatchesGlobalPeriodicFill) {
  // Scatter, exchange, and compare every ghost against the global wrap.
  // Layouts cover even splits, uneven splits (12 over 5 ranks: 3,3,2,2,2),
  // blocks thinner than the ghost depth (12 over 5 and 6), and fully
  // 1-cell-thick pencils (12 over 12) whose halos must hop across several
  // owner ranks per face.
  const auto g = Grid::cube(kN);
  for (auto [rx, ry, rz] : {std::array<int, 3>{2, 1, 1},
                            std::array<int, 3>{2, 2, 1},
                            std::array<int, 3>{2, 2, 3},
                            std::array<int, 3>{5, 1, 1},
                            std::array<int, 3>{1, 5, 2},
                            std::array<int, 3>{6, 1, 2},
                            std::array<int, 3>{12, 1, 1},
                            std::array<int, 3>{1, 1, 12},
                            std::array<int, 3>{4, 3, 2}}) {
    Comm comm(g, rx, ry, rz, true);
    auto blocks = scatter(comm);
    std::vector<Field3<double>*> ptrs;
    for (auto& b : blocks) ptrs.push_back(&b);
    halo_exchange(comm, ptrs);
    for (int r = 0; r < comm.ranks(); ++r) {
      const auto b = comm.decomp().block(r);
      for (int k = -kNg; k < b.n[2] + kNg; ++k)
        for (int j = -kNg; j < b.n[1] + kNg; ++j)
          for (int i = -kNg; i < b.n[0] + kNg; ++i) {
            const int gi = ((b.lo[0] + i) % kN + kN) % kN;
            const int gj = ((b.lo[1] + j) % kN + kN) % kN;
            const int gk = ((b.lo[2] + k) % kN + kN) % kN;
            ASSERT_EQ(blocks[static_cast<std::size_t>(r)](i, j, k),
                      cell_value(gi, gj, gk))
                << rx << ry << rz << " rank " << r;
          }
    }
  }
}

TEST(Comm, NonPeriodicLeavesPhysicalGhostsUntouched) {
  const auto g = Grid::cube(kN);
  Comm comm(g, 2, 1, 1, false);
  auto blocks = scatter(comm);
  blocks[0](-1, 0, 0) = -777.0;  // sentinel in a physical ghost
  std::vector<Field3<double>*> ptrs;
  for (auto& b : blocks) ptrs.push_back(&b);
  halo_exchange(comm, ptrs);
  EXPECT_EQ(blocks[0](-1, 0, 0), -777.0);
  // But the interior face was exchanged.
  const auto b0 = comm.decomp().block(0);
  EXPECT_EQ(blocks[0](b0.n[0], 0, 0), cell_value(b0.n[0], 0, 0));
}

TEST(Comm, TrafficMeteringCountsBytes) {
  const auto g = Grid::cube(kN);
  Comm comm(g, 2, 1, 1, true);
  auto blocks = scatter(comm);
  std::vector<Field3<double>*> ptrs;
  for (auto& b : blocks) ptrs.push_back(&b);
  const std::size_t before = comm.bytes_exchanged();
  halo_exchange(comm, ptrs);
  // Two ranks, x-axis only has interior+wrap faces: each rank receives
  // ng * (ny+2ng) * ... — just sanity-check nonzero and units of 8 bytes.
  const std::size_t moved = comm.bytes_exchanged() - before;
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(moved % sizeof(double), 0u);
}

TEST(Comm, ByteMeteringCrossChecksDecompHaloCells) {
  // The metering the scaling model's traffic terms are validated against:
  // an x-axis exchange moves exactly ng * (tangential area) cells per face,
  // which is what Decomp::halo_cells predicts (x goes first, so no
  // tangential widening yet).
  const auto g = Grid::cube(kN);
  Comm comm(g, 3, 2, 1, true);
  auto blocks = scatter(comm);
  std::vector<Field3<double>*> ptrs;
  for (auto& b : blocks) ptrs.push_back(&b);
  const std::size_t before = comm.bytes_exchanged();
  halo_exchange_axis(comm, ptrs, 0);
  std::size_t expect = 0;
  for (int r = 0; r < comm.ranks(); ++r) {
    expect += comm.decomp().halo_cells(r, igr::mesh::Face::kXLo, kNg);
    expect += comm.decomp().halo_cells(r, igr::mesh::Face::kXHi, kNg);
  }
  EXPECT_EQ(comm.bytes_exchanged() - before, expect * sizeof(double));
}

TEST(Comm, CompletionOrderDoesNotChangeGhosts) {
  // The nonblocking-style pipeline: post every rank first, then complete in
  // reverse order — same ghosts as completing in rank order.
  const auto g = Grid::cube(kN);
  Comm comm(g, 3, 1, 1, true);
  auto split = scatter(comm);
  auto coll = scatter(comm);
  std::vector<Field3<double>*> cptrs;
  for (auto& b : coll) cptrs.push_back(&b);
  for (int axis = 0; axis < 3; ++axis) {
    for (int r = 0; r < comm.ranks(); ++r) {
      const Field3<double>* f = &split[static_cast<std::size_t>(r)];
      comm.post_axis(Comm::kChanState, r, &f, 1, axis);
    }
    for (int r = comm.ranks() - 1; r >= 0; --r) {
      Field3<double>* f = &split[static_cast<std::size_t>(r)];
      ASSERT_TRUE(comm.complete_axis(Comm::kChanState, r, &f, 1, axis));
    }
    halo_exchange_axis(comm, cptrs, axis);
  }
  for (int r = 0; r < comm.ranks(); ++r) {
    const auto b = comm.decomp().block(r);
    for (int k = -kNg; k < b.n[2] + kNg; ++k)
      for (int j = -kNg; j < b.n[1] + kNg; ++j)
        for (int i = -kNg; i < b.n[0] + kNg; ++i)
          ASSERT_EQ(split[static_cast<std::size_t>(r)](i, j, k),
                    coll[static_cast<std::size_t>(r)](i, j, k));
  }
}

TEST(Comm, ValidatesDriverDecompositions) {
  const auto g = Grid::cube(kN);
  // Periodic: any thickness is exchangeable (multi-hop halos).
  EXPECT_NO_THROW(Comm(g, 12, 1, 1, true).validate_driver_decomp(kNg));
  // Non-periodic, even 6+6 split: blocks touch a boundary or sit >= ng away.
  EXPECT_NO_THROW(Comm(g, 2, 1, 1, false).validate_driver_decomp(kNg));
  // Non-periodic, 12 over 5 (3,3,2,2,2): the second-to-last block ends 2
  // cells from the x-high boundary — its outer ghost planes would be
  // neither exchanged nor BC-filled.
  EXPECT_THROW(Comm(g, 5, 1, 1, false).validate_driver_decomp(kNg),
               std::invalid_argument);
}

TEST(Comm, AllreduceMin) {
  EXPECT_DOUBLE_EQ(Comm::allreduce_min({3.0, 1.5, 2.0}), 1.5);
  EXPECT_THROW(static_cast<void>(Comm::allreduce_min({})),
               std::invalid_argument);
}

}  // namespace
