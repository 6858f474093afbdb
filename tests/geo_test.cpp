// Unit tests for the geo subsystem: haversine, projections, bounding boxes
// and the shared cell grid.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "geo/cell_grid.h"
#include "geo/geo.h"
#include "profiles/summaries.h"
#include "support/error.h"

namespace mood::geo {
namespace {

constexpr double kLyonLat = 45.7640;
constexpr double kLyonLon = 4.8357;

TEST(Haversine, ZeroForIdenticalPoints) {
  const GeoPoint p{kLyonLat, kLyonLon};
  EXPECT_DOUBLE_EQ(haversine_m(p, p), 0.0);
}

TEST(Haversine, KnownCityDistance) {
  // Lyon -> Geneva is ~112 km as the crow flies.
  const GeoPoint lyon{45.7640, 4.8357};
  const GeoPoint geneva{46.2044, 6.1432};
  EXPECT_NEAR(haversine_m(lyon, geneva), 112000.0, 2500.0);
}

TEST(Haversine, OneDegreeLatitudeIsKnown) {
  const GeoPoint a{45.0, 5.0}, b{46.0, 5.0};
  EXPECT_NEAR(haversine_m(a, b), 111195.0, 50.0);  // pi*R/180
}

TEST(Haversine, Symmetric) {
  const GeoPoint a{45.0, 5.0}, b{45.3, 5.4};
  EXPECT_DOUBLE_EQ(haversine_m(a, b), haversine_m(b, a));
}

TEST(Destination, NorthAndEastDisplacements) {
  const GeoPoint origin{kLyonLat, kLyonLon};
  const GeoPoint north = destination(origin, 0.0, 1000.0);
  EXPECT_NEAR(haversine_m(origin, north), 1000.0, 1.0);
  EXPECT_GT(north.lat, origin.lat);
  EXPECT_NEAR(north.lon, origin.lon, 1e-9);

  const GeoPoint east = destination(origin, kPi / 2.0, 1000.0);
  EXPECT_NEAR(haversine_m(origin, east), 1000.0, 1.0);
  EXPECT_GT(east.lon, origin.lon);
  EXPECT_NEAR(east.lat, origin.lat, 1e-9);
}

TEST(Destination, ZeroDistanceIsIdentity) {
  const GeoPoint origin{kLyonLat, kLyonLon};
  const GeoPoint there = destination(origin, 1.234, 0.0);
  EXPECT_NEAR(haversine_m(origin, there), 0.0, 1e-9);
}

TEST(Destination, RejectsNearPoleOrigins) {
  // Near-pole origins used to silently return an unchanged (or wildly
  // wrong) longitude, corrupting LPPM output; they must now fail loudly
  // with the same |lat| < 89 bound as LocalProjection.
  EXPECT_THROW(destination(GeoPoint{90.0, 0.0}, 0.0, 10.0),
               support::PreconditionError);
  EXPECT_THROW(destination(GeoPoint{-90.0, 0.0}, 0.0, 10.0),
               support::PreconditionError);
  EXPECT_THROW(destination(GeoPoint{89.0, 0.0}, 0.0, 10.0),
               support::PreconditionError);
  EXPECT_THROW(destination(GeoPoint{-89.5, 0.0}, 0.0, 10.0),
               support::PreconditionError);
  // Well away from the poles still works.
  EXPECT_NO_THROW(destination(GeoPoint{85.0, 0.0}, 0.0, 10.0));
}

TEST(LocalProjection, RoundTripsAccurately) {
  const LocalProjection proj(GeoPoint{kLyonLat, kLyonLon});
  for (double dlat = -0.1; dlat <= 0.1; dlat += 0.05) {
    for (double dlon = -0.1; dlon <= 0.1; dlon += 0.05) {
      const GeoPoint p{kLyonLat + dlat, kLyonLon + dlon};
      const GeoPoint back = proj.to_geo(proj.to_enu(p));
      EXPECT_NEAR(back.lat, p.lat, 1e-9);
      EXPECT_NEAR(back.lon, p.lon, 1e-9);
    }
  }
}

TEST(LocalProjection, DistancesMatchHaversineAtCityScale) {
  const LocalProjection proj(GeoPoint{kLyonLat, kLyonLon});
  const GeoPoint a{kLyonLat + 0.03, kLyonLon - 0.05};
  const GeoPoint b{kLyonLat - 0.02, kLyonLon + 0.04};
  const double planar = euclidean_m(proj.to_enu(a), proj.to_enu(b));
  const double sphere = haversine_m(a, b);
  EXPECT_NEAR(planar, sphere, sphere * 0.002);  // < 0.2% at ~10 km
}

TEST(LocalProjection, RejectsPolarReference) {
  EXPECT_THROW(LocalProjection(GeoPoint{89.9, 0.0}),
               support::PreconditionError);
}

TEST(BoundingBox, GrowsAndContains) {
  BoundingBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_FALSE(box.contains(GeoPoint{0, 0}));
  box.extend(GeoPoint{45.0, 5.0});
  box.extend(GeoPoint{46.0, 4.0});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains(GeoPoint{45.5, 4.5}));
  EXPECT_FALSE(box.contains(GeoPoint{47.0, 4.5}));
  const GeoPoint c = box.center();
  EXPECT_NEAR(c.lat, 45.5, 1e-12);
  EXPECT_NEAR(c.lon, 4.5, 1e-12);
  EXPECT_GT(box.diagonal_m(), 0.0);
}

TEST(BoundingBox, CenterOfEmptyThrows) {
  const BoundingBox box;
  EXPECT_THROW(static_cast<void>(box.center()), support::PreconditionError);
  EXPECT_DOUBLE_EQ(box.diagonal_m(), 0.0);
}

TEST(Centroid, AveragesAndRejectsEmpty) {
  const GeoPoint c =
      centroid({GeoPoint{45.0, 5.0}, GeoPoint{47.0, 3.0}});
  EXPECT_NEAR(c.lat, 46.0, 1e-12);
  EXPECT_NEAR(c.lon, 4.0, 1e-12);
  EXPECT_THROW(centroid({}), support::PreconditionError);
}

// ----------------------------------------------------------- CellGrid --

class CellGridTest : public ::testing::Test {
 protected:
  LocalProjection proj_{GeoPoint{kLyonLat, kLyonLon}};
  CellGrid grid_{proj_, 800.0};
};

TEST_F(CellGridTest, OriginFallsInCellZero) {
  const CellIndex c = grid_.cell_of(GeoPoint{kLyonLat, kLyonLon});
  EXPECT_EQ(c.ix, 0);
  EXPECT_EQ(c.iy, 0);
}

TEST_F(CellGridTest, NeighbourCellsAreAdjacent) {
  const GeoPoint east_900m =
      destination(GeoPoint{kLyonLat, kLyonLon}, kPi / 2.0, 900.0);
  const CellIndex c = grid_.cell_of(east_900m);
  EXPECT_EQ(c.ix, 1);
  EXPECT_EQ(c.iy, 0);
}

TEST_F(CellGridTest, NegativeCellsWestAndSouth) {
  const GeoPoint west =
      destination(GeoPoint{kLyonLat, kLyonLon}, -kPi / 2.0, 900.0);
  EXPECT_EQ(grid_.cell_of(west).ix, -2);
  const GeoPoint south = destination(GeoPoint{kLyonLat, kLyonLon}, kPi, 10.0);
  EXPECT_EQ(grid_.cell_of(south).iy, -1);
}

TEST_F(CellGridTest, CellCenterMapsBackToSameCell) {
  for (int ix = -3; ix <= 3; ++ix) {
    for (int iy = -3; iy <= 3; ++iy) {
      const CellIndex c{ix, iy};
      EXPECT_EQ(grid_.cell_of(grid_.cell_center(c)), c);
    }
  }
}

TEST_F(CellGridTest, OffsetRoundTrip) {
  const GeoPoint p = destination(
      destination(GeoPoint{kLyonLat, kLyonLon}, kPi / 2.0, 1234.0), 0.0,
      567.0);
  const CellIndex cell = grid_.cell_of(p);
  const EnuPoint offset = grid_.offset_within_cell(p);
  EXPECT_GE(offset.x, 0.0);
  EXPECT_LT(offset.x, 800.0);
  EXPECT_GE(offset.y, 0.0);
  EXPECT_LT(offset.y, 800.0);
  const GeoPoint back = grid_.point_in_cell(cell, offset);
  EXPECT_NEAR(haversine_m(p, back), 0.0, 0.01);
}

TEST_F(CellGridTest, RejectsNonPositiveCellSize) {
  EXPECT_THROW(CellGrid(proj_, 0.0), support::PreconditionError);
  EXPECT_THROW(CellGrid(proj_, -5.0), support::PreconditionError);
}

TEST(CellIndexHash, DistinctCellsUsuallyDistinctHashes) {
  CellIndexHash hash;
  std::set<std::size_t> seen;
  int collisions = 0;
  for (int x = -50; x < 50; ++x) {
    for (int y = -50; y < 50; ++y) {
      if (!seen.insert(hash(CellIndex{x, y})).second) ++collisions;
    }
  }
  EXPECT_LT(collisions, 3);
}

// -------------------------------------------------------- Chord bound --

TEST(Chord, MatchesKnownDistances) {
  const UnitVector a = unit_vector(trig_point(GeoPoint{45.0, 5.0}));
  EXPECT_EQ(chord_m(a, a), 0.0);
  const UnitVector antipode = unit_vector(trig_point(GeoPoint{-45.0, -175.0}));
  EXPECT_NEAR(chord_m(a, antipode), 2.0 * kEarthRadiusM, 1e-6);
  // 1 degree of arc: the chord is 2R sin(0.5 deg), a hair below R * pi/180.
  const UnitVector b = unit_vector(trig_point(GeoPoint{46.0, 5.0}));
  EXPECT_NEAR(chord_m(a, b), 2.0 * kEarthRadiusM * std::sin(kPi / 360.0),
              1e-6);
}

TEST(Chord, DeflatedChordNeverExceedsHaversineOnCellGrids) {
  // Every ordered pair of cell centres of a 16 x 16 block plus far cells,
  // on grids anchored in both hemispheres, at 64 N and next to the
  // antimeridian (cells east of it reach past 180 E), at the paper's 800 m
  // cells and at 10 m, where the terms are smallest.
  const GeoPoint anchors[] = {{37.7749, -122.4194}, {46.2044, 6.1432},
                              {39.9042, 116.4074}, {64.1466, -21.9426},
                              {-33.8688, 151.2093}, {0.5, 179.9}};
  std::vector<int> offsets{-300, -75, 40, 150};
  for (int k = -8; k < 8; ++k) offsets.push_back(k);
  for (const GeoPoint& anchor : anchors) {
    for (const double cell_m : {800.0, 10.0}) {
      SCOPED_TRACE(::testing::Message() << anchor.lat << "," << anchor.lon
                                        << " @" << cell_m << " m");
      const CellGrid grid(LocalProjection(anchor), cell_m);
      std::vector<TrigPoint> trig;
      std::vector<UnitVector> units;
      for (const int ix : offsets) {
        for (const int iy : offsets) {
          trig.push_back(trig_point(grid.cell_center(CellIndex{ix, iy})));
          units.push_back(unit_vector(trig.back()));
        }
      }
      for (std::size_t i = 0; i < trig.size(); ++i) {
        EXPECT_EQ(profiles::deflate_bound(chord_m(units[i], units[i]),
                                          profiles::kBallAbsMarginM),
                  0.0);
        for (std::size_t j = 0; j < trig.size(); ++j) {
          if (i == j) continue;
          const double exact = haversine_m(trig[i], trig[j]);
          const double chord = chord_m(units[i], units[j]);
          ASSERT_LE(profiles::deflate_bound(chord, profiles::kBallAbsMarginM),
                    exact)
              << i << " -> " << j;
          // Tight, not merely admissible: up to these grids' ~450 km the
          // chord is within 3e-4 of the arc (1 - t^2 / 24).
          ASSERT_GT(chord, exact * 0.999) << i << " -> " << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mood::geo
