/// Unit tests for the grid and domain decomposition.

#include <gtest/gtest.h>

#include <set>

#include "mesh/decomp.hpp"
#include "mesh/grid.hpp"

namespace {

using igr::mesh::Decomp;
using igr::mesh::Face;
using igr::mesh::Grid;

TEST(Grid, CellCentersAndSpacing) {
  Grid g(10, 20, 40, {0.0, 1.0}, {0.0, 2.0}, {-1.0, 1.0});
  EXPECT_DOUBLE_EQ(g.dx(), 0.1);
  EXPECT_DOUBLE_EQ(g.dy(), 0.1);
  EXPECT_DOUBLE_EQ(g.dz(), 0.05);
  EXPECT_DOUBLE_EQ(g.x(0), 0.05);
  EXPECT_DOUBLE_EQ(g.y(19), 1.95);
  EXPECT_DOUBLE_EQ(g.z(0), -0.975);
  EXPECT_EQ(g.cells(), 8000u);
}

TEST(Grid, CubeFactory) {
  const auto g = Grid::cube(16);
  EXPECT_EQ(g.nx(), 16);
  EXPECT_DOUBLE_EQ(g.dx(), 1.0 / 16);
  EXPECT_DOUBLE_EQ(g.min_dx(), 1.0 / 16);
}

TEST(Grid, RejectsBadExtents) {
  EXPECT_THROW(Grid(4, 4, 4, {1.0, 0.0}, {0.0, 1.0}, {0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Grid(0, 4, 4, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}),
               std::invalid_argument);
}

TEST(Grid, MinDxPicksSmallest) {
  Grid g(10, 10, 100, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(g.min_dx(), 0.01);
}

TEST(Decomp, BlocksTileTheGrid) {
  const auto g = Grid::cube(17);  // deliberately indivisible
  Decomp d(g, 3, 2, 2);
  std::set<std::array<int, 3>> covered;
  std::size_t total = 0;
  for (int r = 0; r < d.ranks(); ++r) {
    const auto b = d.block(r);
    total += static_cast<std::size_t>(b.n[0]) * b.n[1] * b.n[2];
    EXPECT_GT(b.n[0], 0);
  }
  EXPECT_EQ(total, g.cells());
}

TEST(Decomp, RankCoordsRoundTrip) {
  const auto g = Grid::cube(16);
  Decomp d(g, 2, 3, 4);
  for (int r = 0; r < d.ranks(); ++r) {
    const auto c = d.coords_of(r);
    EXPECT_EQ(d.rank_of(c[0], c[1], c[2]), r);
  }
}

TEST(Decomp, PeriodicNeighborsWrap) {
  const auto g = Grid::cube(16);
  Decomp d(g, 2, 2, 2, /*periodic=*/true);
  // Rank 0 is at (0,0,0); its x-low neighbor wraps to (1,0,0) = rank 1.
  EXPECT_EQ(d.neighbor(0, Face::kXLo), 1);
  EXPECT_EQ(d.neighbor(0, Face::kXHi), 1);
  EXPECT_EQ(d.neighbor(0, Face::kYLo), 2);
  EXPECT_EQ(d.neighbor(0, Face::kZLo), 4);
}

TEST(Decomp, NonPeriodicBoundaryHasNoNeighbor) {
  const auto g = Grid::cube(16);
  Decomp d(g, 2, 2, 2, /*periodic=*/false);
  EXPECT_EQ(d.neighbor(0, Face::kXLo), -1);
  EXPECT_EQ(d.neighbor(0, Face::kXHi), 1);
}

TEST(Decomp, PeriodicityIsPerAxis) {
  // x held at both ends, y and z periodic (a shock tube with periodic
  // transverse faces): only y and z wrap.
  const auto g = Grid::cube(16);
  Decomp d(g, 2, 2, 2, {false, true, true});
  EXPECT_FALSE(d.periodic(0));
  EXPECT_TRUE(d.periodic(1));
  EXPECT_TRUE(d.periodic(2));
  EXPECT_EQ(d.neighbor(0, Face::kXLo), -1);
  EXPECT_EQ(d.neighbor(1, Face::kXHi), -1);
  EXPECT_EQ(d.neighbor(0, Face::kYLo), 2);
  EXPECT_EQ(d.neighbor(0, Face::kZLo), 4);
}

TEST(Decomp, NeighborsAreMutual) {
  const auto g = Grid::cube(12);
  Decomp d(g, 3, 2, 2, true);
  for (int r = 0; r < d.ranks(); ++r) {
    for (int f = 0; f < igr::mesh::kNumFaces; ++f) {
      const auto face = static_cast<Face>(f);
      const int nb = d.neighbor(r, face);
      ASSERT_GE(nb, 0);
      EXPECT_EQ(d.neighbor(nb, igr::mesh::opposite(face)), r);
    }
  }
}

TEST(Decomp, HaloCellsMatchFaceArea) {
  const auto g = Grid::cube(12);
  Decomp d(g, 2, 2, 2, true);
  // 6x6x6 local blocks, 3 ghost layers: x-face halo = 6*6*3.
  EXPECT_EQ(d.halo_cells(0, Face::kXLo, 3), 108u);
}

TEST(Decomp, UnevenSplitFavorsLowRanks) {
  const auto g = Grid(7, 4, 4, {0, 1}, {0, 1}, {0, 1});
  Decomp d(g, 2, 1, 1);
  EXPECT_EQ(d.block(0).n[0], 4);
  EXPECT_EQ(d.block(1).n[0], 3);
  EXPECT_EQ(d.block(1).lo[0], 4);
}

TEST(Decomp, RejectsOverDecomposition) {
  const auto g = Grid::cube(4);
  EXPECT_THROW(Decomp(g, 8, 1, 1), std::invalid_argument);
}

TEST(Decomp, BalancedLayoutFactorizes) {
  EXPECT_EQ(Decomp::balanced_layout(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(Decomp::balanced_layout(12), (std::array<int, 3>{3, 2, 2}));
  EXPECT_EQ(Decomp::balanced_layout(1), (std::array<int, 3>{1, 1, 1}));
  const auto l64 = Decomp::balanced_layout(64);
  EXPECT_EQ(l64[0] * l64[1] * l64[2], 64);
  EXPECT_EQ(l64, (std::array<int, 3>{4, 4, 4}));
}

TEST(Grid, WindowSharesSpacingAndCellCentersBitwise) {
  // 12 cells on [0,1]: dx = 1/12 is not exactly representable, so any
  // recomputation of spacing or origin from extents rounds differently.
  // A window must reproduce the parent's spacing and cell centers bitwise
  // — decomposed-vs-single-domain equivalence rests on it.
  const auto g = Grid::cube(12);
  const auto w = Grid::window(g, {5, 0, 7}, {4, 12, 5});
  EXPECT_EQ(w.dx(), g.dx());
  EXPECT_EQ(w.min_dx(), g.min_dx());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(w.x(i), g.x(5 + i));
  for (int j = 0; j < 12; ++j) EXPECT_EQ(w.y(j), g.y(j));
  for (int k = 0; k < 5; ++k) EXPECT_EQ(w.z(k), g.z(7 + k));
  EXPECT_EQ(w.nx(), 4);
  // Windows of windows chain the index offsets.
  const auto w2 = Grid::window(w, {2, 1, 0}, {2, 3, 5});
  EXPECT_EQ(w2.x(0), g.x(7));
  EXPECT_THROW(Grid::window(g, {10, 0, 0}, {4, 1, 1}), std::invalid_argument);
}

TEST(Decomp, OwnerCoordInvertsTheSplit) {
  const auto g = Grid(13, 4, 4, {0, 1}, {0, 1}, {0, 1});
  Decomp d(g, 5, 1, 1);  // 3,3,3,2,2
  for (int c = 0; c < 5; ++c) {
    const auto b = d.block(d.rank_of(c, 0, 0));
    for (int i = 0; i < b.n[0]; ++i)
      EXPECT_EQ(d.owner_coord(0, b.lo[0] + i), c);
  }
  EXPECT_THROW(static_cast<void>(d.owner_coord(0, 13)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(d.owner_coord(0, -1)),
               std::invalid_argument);
}

TEST(Decomp, OppositeFaces) {
  using igr::mesh::opposite;
  EXPECT_EQ(opposite(Face::kXLo), Face::kXHi);
  EXPECT_EQ(opposite(Face::kYHi), Face::kYLo);
  EXPECT_EQ(opposite(Face::kZLo), Face::kZHi);
}

}  // namespace
