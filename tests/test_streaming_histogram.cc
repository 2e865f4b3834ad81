#include "stats/streaming_histogram.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace ppc {
namespace {

TEST(StreamingHistogramTest, EmptyQueries) {
  StreamingHistogram h(8);
  EXPECT_EQ(h.EstimateCount(0.0, 1.0), 0.0);
  EXPECT_EQ(h.EstimateAverageCost(0.0, 1.0), 0.0);
  EXPECT_EQ(h.TotalCount(), 0u);
}

TEST(StreamingHistogramTest, SingleInsert) {
  StreamingHistogram h(8);
  h.Insert(0.5, 100.0);
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_NEAR(h.EstimateCount(0.0, 1.0), 1.0, 1e-9);
  EXPECT_NEAR(h.EstimateAverageCost(0.0, 1.0), 100.0, 1e-9);
}

TEST(StreamingHistogramTest, DuplicatePositionsAccumulate) {
  StreamingHistogram h(8);
  for (int i = 0; i < 10; ++i) h.Insert(0.3, 50.0);
  EXPECT_EQ(h.bucket_count(), 1u);
  EXPECT_NEAR(h.EstimateCount(0.0, 1.0), 10.0, 1e-9);
  EXPECT_NEAR(h.EstimateAverageCost(0.0, 1.0), 50.0, 1e-9);
}

TEST(StreamingHistogramTest, BucketBudgetEnforced) {
  StreamingHistogram h(10);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) h.Insert(rng.Uniform(), 1.0);
  EXPECT_LE(h.bucket_count(), 10u);
  EXPECT_EQ(h.TotalCount(), 1000u);
  // Total mass is preserved by merging.
  EXPECT_NEAR(h.EstimateCount(0.0, 1.0), 1000.0, 1.0);
}

TEST(StreamingHistogramTest, RangeCountTracksUniformMass) {
  StreamingHistogram h(40);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) h.Insert(rng.Uniform(), 1.0);
  EXPECT_NEAR(h.EstimateCount(0.0, 0.5), 2500.0, 200.0);
  EXPECT_NEAR(h.EstimateCount(0.25, 0.75), 2500.0, 200.0);
  EXPECT_NEAR(h.EstimateCount(0.9, 1.0), 500.0, 120.0);
}

TEST(StreamingHistogramTest, DisjointClustersSeparated) {
  StreamingHistogram h(16);
  for (int i = 0; i < 100; ++i) {
    h.Insert(0.1 + 0.001 * i, 10.0);
    h.Insert(0.8 + 0.001 * i, 90.0);
  }
  // Edge buckets smear toward the distant neighbour (their extent ends at
  // the centroid midpoint), so allow ~15% leakage.
  EXPECT_NEAR(h.EstimateCount(0.0, 0.3), 100.0, 15.0);
  EXPECT_NEAR(h.EstimateCount(0.7, 1.0), 100.0, 15.0);
  EXPECT_LT(h.EstimateCount(0.45, 0.55), 10.0);
  EXPECT_NEAR(h.EstimateAverageCost(0.0, 0.3), 10.0, 2.0);
  EXPECT_NEAR(h.EstimateAverageCost(0.7, 1.0), 90.0, 2.0);
}

TEST(StreamingHistogramTest, AverageCostWeightedByCount) {
  StreamingHistogram h(16);
  for (int i = 0; i < 30; ++i) h.Insert(0.2, 10.0);
  for (int i = 0; i < 10; ++i) h.Insert(0.21, 50.0);
  // Average over the whole range: (30*10 + 10*50) / 40 = 20.
  EXPECT_NEAR(h.EstimateAverageCost(0.0, 1.0), 20.0, 1e-6);
}

TEST(StreamingHistogramTest, InvertedRangeIsEmpty) {
  StreamingHistogram h(8);
  h.Insert(0.5, 1.0);
  EXPECT_EQ(h.EstimateCount(0.8, 0.2), 0.0);
}

TEST(StreamingHistogramTest, PositionsClampedToUnitInterval) {
  StreamingHistogram h(8);
  h.Insert(-0.5, 1.0);
  h.Insert(1.5, 1.0);
  EXPECT_NEAR(h.EstimateCount(0.0, 1.0), 2.0, 1e-9);
}

TEST(StreamingHistogramTest, ClearResets) {
  StreamingHistogram h(8);
  for (int i = 0; i < 100; ++i) h.Insert(0.5, 1.0);
  h.Clear();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.bucket_count(), 0u);
  EXPECT_EQ(h.EstimateCount(0.0, 1.0), 0.0);
}

/// The cached probe table must equal a fresh ExportProbe/ExportProbeCosts
/// of the current buckets, exactly: the predict path reads only the cache.
void ExpectProbeCurrent(const StreamingHistogram& h) {
  const size_t b = h.bucket_count();
  std::vector<double> fresh(5 * b);
  h.ExportProbe(fresh.data(), fresh.data() + b, fresh.data() + 2 * b,
                fresh.data() + 4 * b);
  h.ExportProbeCosts(fresh.data() + 3 * b);
  const StreamingHistogram::Probe probe = h.probe();
  ASSERT_EQ(probe.size, b);
  const double* cached[5] = {probe.left, probe.right, probe.count,
                             probe.cost, probe.centroid};
  for (size_t k = 0; k < 5; ++k) {
    for (size_t i = 0; i < b; ++i) {
      EXPECT_EQ(cached[k][i], fresh[k * b + i]) << "array " << k << " bucket "
                                                << i;
    }
  }
}

TEST(StreamingHistogramTest, ProbeTableTracksEveryMutation) {
  StreamingHistogram h(8);
  ExpectProbeCurrent(h);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    // Duplicates (count/cost only), fresh buckets, and merges past the
    // budget all change the table.
    const double position = i % 7 == 0 ? 0.25 : rng.Uniform();
    h.Insert(position, rng.Uniform(1.0, 50.0));
    ExpectProbeCurrent(h);
  }
  ByteWriter writer;
  h.SerializeTo(&writer);
  ByteReader reader(writer.buffer());
  auto restored = StreamingHistogram::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  ExpectProbeCurrent(restored.value());
  h.Clear();
  ExpectProbeCurrent(h);
}

TEST(StreamingHistogramTest, SpaceBytesIsTwelvePerBucket) {
  StreamingHistogram h(40);
  EXPECT_EQ(h.SpaceBytes(), 40u * 12u);
}

TEST(StreamingHistogramTest, MergePolicyVarianceKeepsClustersApart) {
  // With the variance policy, merging should prefer to consolidate the
  // dense cluster internally rather than bridge the two clusters.
  StreamingHistogram h(4, StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) h.Insert(rng.Gaussian(0.2, 0.01), 5.0);
  for (int i = 0; i < 200; ++i) h.Insert(rng.Gaussian(0.9, 0.01), 50.0);
  const double left = h.EstimateCount(0.0, 0.5);
  const double right = h.EstimateCount(0.5, 1.0);
  EXPECT_NEAR(left, 200.0, 30.0);
  EXPECT_NEAR(right, 200.0, 30.0);
}

TEST(StreamingHistogramTest, DebugStringMentionsBuckets) {
  StreamingHistogram h(8);
  h.Insert(0.5, 2.0);
  EXPECT_NE(h.DebugString().find("buckets=1"), std::string::npos);
}

class MergePolicyTest
    : public ::testing::TestWithParam<StreamingHistogram::MergePolicy> {};

TEST_P(MergePolicyTest, MassConservedUnderAnyPolicy) {
  StreamingHistogram h(12, GetParam());
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) h.Insert(rng.Uniform(), rng.Uniform());
  EXPECT_LE(h.bucket_count(), 12u);
  EXPECT_NEAR(h.EstimateCount(0.0, 1.0), 2000.0, 2.0);
}

TEST_P(MergePolicyTest, CountsNonNegative) {
  StreamingHistogram h(6, GetParam());
  Rng rng(17);
  for (int i = 0; i < 500; ++i) h.Insert(rng.Gaussian(0.5, 0.2), 1.0);
  for (double lo = 0.0; lo < 1.0; lo += 0.1) {
    EXPECT_GE(h.EstimateCount(lo, lo + 0.1), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, MergePolicyTest,
    ::testing::Values(StreamingHistogram::MergePolicy::kMinVarianceIncrease,
                      StreamingHistogram::MergePolicy::kNearestCentroid,
                      StreamingHistogram::MergePolicy::kEquiWidth));

}  // namespace
}  // namespace ppc
