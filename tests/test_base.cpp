// Unit tests for the base utilities: errors, RNG, stats, constants.
#include <gtest/gtest.h>

#include <cmath>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/stats.hpp"

namespace {

using namespace ap3;

TEST(Error, RequireThrowsWithContext) {
  try {
    AP3_REQUIRE_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(AP3_REQUIRE(2 + 2 == 4));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalHasUnitVarianceApprox) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Stats, RelativeL2OfIdenticalIsZero) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::relative_l2(x, x), 0.0);
}

TEST(Stats, RelativeL2Scales) {
  const std::vector<double> ref = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> test = {1.1, 1.1, 1.1, 1.1};
  EXPECT_NEAR(stats::relative_l2(test, ref), 0.1, 1e-12);
}

TEST(Stats, WeightedRmsdIgnoresZeroWeightPoints) {
  const std::vector<double> ref = {0.0, 1.0};
  const std::vector<double> test = {100.0, 1.0};  // huge error on land point
  const std::vector<double> area = {0.0, 1.0};    // land has zero area weight
  EXPECT_DOUBLE_EQ(stats::weighted_rmsd(test, ref, area), 0.0);
}

TEST(Stats, WeightedRmsdMatchesPlainForUniformWeights) {
  const std::vector<double> ref = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> test = {1.5, 2.5, 2.5, 4.5};
  const std::vector<double> area = {2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(stats::weighted_rmsd(test, ref, area), stats::rmsd(test, ref),
              1e-12);
}

TEST(Stats, CorrelationOfLinearIsOne) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::correlation(x, y), 1.0, 1e-12);
}

TEST(Stats, RSquaredPerfectPrediction) {
  const std::vector<double> t = {1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::r_squared(t, t), 1.0);
}

TEST(Constants, EarthValuesSane) {
  EXPECT_NEAR(constants::kEarthRadiusM, 6.371e6, 1e3);
  EXPECT_NEAR(constants::kKappa, 0.2857, 1e-3);
  EXPECT_DOUBLE_EQ(constants::kSecondsPerDay, 86400.0);
}

}  // namespace
