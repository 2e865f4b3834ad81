#include "ppc/lsh_histograms_predictor.h"

#include <gtest/gtest.h>

#include "common/alloc_counter.h"
#include "ppc/metrics.h"
#include "ppc/plan_synopsis.h"
#include "test_util.h"

namespace ppc {
namespace {

using testutil::HalfSpacePlan;
using testutil::SamplePoints;
using testutil::SyntheticCost;

LshHistogramsPredictor::Config BaseConfig() {
  LshHistogramsPredictor::Config cfg;
  cfg.dimensions = 2;
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  cfg.radius = 0.1;
  cfg.confidence_threshold = 0.6;
  return cfg;
}

TEST(PlanSynopsisTest, InsertAndMedianCount) {
  PlanSynopsis synopsis(3, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  for (int i = 0; i < 30; ++i) {
    synopsis.Insert(0, 0.2, 10.0);
    synopsis.Insert(1, 0.5, 10.0);
    synopsis.Insert(2, 0.8, 10.0);
  }
  EXPECT_EQ(synopsis.SampleCount(), 30u);
  // Ranges covering each transform's cluster: median of {30, 30, 30}.
  EXPECT_NEAR(synopsis.MedianCount({{{0.15, 0.25}}, {{0.45, 0.55}},
                                    {{0.75, 0.85}}}),
              30.0, 1.0);
  // Ranges missing all clusters: median 0.
  EXPECT_NEAR(synopsis.MedianCount({{{0.85, 0.95}}, {{0.05, 0.15}},
                                    {{0.25, 0.35}}}),
              0.0, 0.5);
  // Mixed: {30, 0, 0} -> median 0.
  EXPECT_NEAR(synopsis.MedianCount({{{0.15, 0.25}}, {{0.05, 0.15}},
                                    {{0.25, 0.35}}}),
              0.0, 0.5);
}

TEST(PlanSynopsisTest, MedianAverageCostSkipsEmptyTransforms) {
  PlanSynopsis synopsis(3, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  synopsis.Insert(0, 0.2, 100.0);
  synopsis.Insert(1, 0.9, 100.0);  // out of queried range below
  synopsis.Insert(2, 0.2, 100.0);
  EXPECT_NEAR(synopsis.MedianAverageCost({{{0.15, 0.25}}, {{0.15, 0.25}},
                                          {{0.15, 0.25}}}),
              100.0, 1e-6);
}

TEST(PlanSynopsisTest, SpaceBytes) {
  PlanSynopsis synopsis(5, 40,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  EXPECT_EQ(synopsis.SpaceBytes(), 5u * 40u * 12u);
}

TEST(PlanSynopsisTest, ClearEmpties) {
  PlanSynopsis synopsis(2, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  synopsis.Insert(0, 0.5, 1.0);
  synopsis.Insert(1, 0.5, 1.0);
  synopsis.Clear();
  EXPECT_EQ(synopsis.SampleCount(), 0u);
}

TEST(LshHistogramsTest, EmptyPredictorIsNull) {
  LshHistogramsPredictor predictor(BaseConfig());
  EXPECT_FALSE(predictor.Predict({0.5, 0.5}).has_value());
  EXPECT_EQ(predictor.SpaceBytes(), 0u);
}

TEST(LshHistogramsTest, LearnsHalfSpace) {
  Rng rng(1);
  LshHistogramsPredictor predictor(BaseConfig(),
                                   SamplePoints(2, 2000, HalfSpacePlan, &rng));
  MetricsAccumulator metrics;
  Rng test_rng(2);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    metrics.Record(predictor.Predict(x).plan, HalfSpacePlan(x));
  }
  EXPECT_GT(metrics.Precision(), 0.9);
  EXPECT_GT(metrics.Recall(), 0.5);
}

TEST(LshHistogramsTest, PredictBatchBitIdenticalToScalarPredict) {
  // The acceptance bar of the batched serving path: for the same points
  // and the same predictor state, PredictBatch must return byte-identical
  // plans, confidences and cost estimates — EXPECT_EQ, no tolerance.
  // Exercise both Z-range modes and a non-zero noise floor. The oracle is
  // PredictReference: Predict itself rides the batch kernel, so comparing
  // against it would check the batch path against itself.
  for (bool decomposition : {false, true}) {
    auto cfg = BaseConfig();
    cfg.interval_decomposition = decomposition;
    cfg.noise_fraction = 0.002;
    Rng rng(11);
    LshHistogramsPredictor predictor(
        cfg, SamplePoints(2, 2000, HalfSpacePlan, &rng));
    Rng probe(13);
    const size_t count = 100;
    std::vector<double> flat;
    for (size_t i = 0; i < count * 2; ++i) flat.push_back(probe.Uniform());
    const std::vector<Prediction> batch =
        predictor.PredictBatch(flat.data(), count);
    ASSERT_EQ(batch.size(), count);
    for (size_t p = 0; p < count; ++p) {
      const Prediction scalar =
          predictor.PredictReference({flat[2 * p], flat[2 * p + 1]});
      EXPECT_EQ(batch[p].plan, scalar.plan) << "point " << p;
      EXPECT_EQ(batch[p].confidence, scalar.confidence) << "point " << p;
      EXPECT_EQ(batch[p].estimated_cost, scalar.estimated_cost)
          << "point " << p;
    }
  }
}

TEST(LshHistogramsTest, PredictBatchIntoAllocatesNothingAfterWarmup) {
  // The serving-path contract this PR introduces: once the thread-local
  // arena and scratch buffers are warm, a whole batched prediction
  // performs zero heap allocations. Two warm-up calls, not one — the
  // arena consolidates multi-block state at the start of the second call.
  auto cfg = BaseConfig();
  cfg.noise_fraction = 0.002;
  Rng rng(17);
  LshHistogramsPredictor predictor(
      cfg, SamplePoints(2, 2000, HalfSpacePlan, &rng));
  Rng probe(19);
  const size_t count = 64;
  std::vector<double> flat;
  for (size_t i = 0; i < count * 2; ++i) flat.push_back(probe.Uniform());
  std::vector<Prediction> out(count);
  predictor.PredictBatchInto(flat.data(), count, out.data());
  predictor.PredictBatchInto(flat.data(), count, out.data());
  const uint64_t before = ThreadAllocationCount();
  predictor.PredictBatchInto(flat.data(), count, out.data());
  EXPECT_EQ(ThreadAllocationCount(), before)
      << "warm PredictBatchInto must not touch the heap";
  // And it still answers: the warm path is the real path, not a stub.
  size_t answered = 0;
  for (const Prediction& p : out) answered += p.has_value() ? 1 : 0;
  EXPECT_GT(answered, 0u);
}

TEST(LshHistogramsTest, PredictRidesTheBatchPathAndAllocatesNothing) {
  // Predict is PredictBatchInto at count = 1: warm, it touches the heap
  // no more than the batch path does (PredictReference, which builds
  // nested range vectors per call, would), and it answers exactly as the
  // batch path answers the same point.
  auto cfg = BaseConfig();
  cfg.noise_fraction = 0.002;
  Rng rng(23);
  LshHistogramsPredictor predictor(
      cfg, SamplePoints(2, 2000, HalfSpacePlan, &rng));
  Rng probe(29);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 32; ++i) {
    points.push_back({probe.Uniform(), probe.Uniform()});
  }
  predictor.Predict(points[0]);
  predictor.Predict(points[0]);
  size_t answered = 0;
  for (const std::vector<double>& x : points) {
    const uint64_t before = ThreadAllocationCount();
    const Prediction single = predictor.Predict(x);
    EXPECT_EQ(ThreadAllocationCount(), before)
        << "warm Predict must not touch the heap";
    const Prediction batch = predictor.PredictBatch(x.data(), 1)[0];
    EXPECT_EQ(single.plan, batch.plan);
    EXPECT_EQ(single.confidence, batch.confidence);
    EXPECT_EQ(single.estimated_cost, batch.estimated_cost);
    answered += single.has_value() ? 1 : 0;
  }
  EXPECT_GT(answered, 0u);
  // EstimateCost shares the batch path's range builder and arena scratch,
  // so it is just as heap-free once warm, for a plan with and without
  // support near the point.
  for (const std::vector<double>& x : points) {
    for (PlanId plan : {PlanId{1}, PlanId{2}}) {
      const uint64_t before = ThreadAllocationCount();
      const double cost = predictor.EstimateCost(x, plan);
      EXPECT_EQ(ThreadAllocationCount(), before)
          << "warm EstimateCost must not touch the heap";
      EXPECT_GE(cost, 0.0);
    }
  }
}

TEST(LshHistogramsTest, EstimateCostMatchesReferenceBitForBit) {
  // EstimateCost rides the flat ranges and probe tables; for the plan the
  // reference names it must return the reference's estimated_cost exactly
  // (EXPECT_EQ, no tolerance), in both Z-range modes.
  for (bool decomposition : {false, true}) {
    auto cfg = BaseConfig();
    cfg.interval_decomposition = decomposition;
    cfg.noise_fraction = 0.002;
    Rng rng(31);
    LshHistogramsPredictor predictor(
        cfg, SamplePoints(2, 2000, HalfSpacePlan, &rng));
    Rng probe(37);
    size_t answered = 0;
    for (int i = 0; i < 100; ++i) {
      const std::vector<double> x = {probe.Uniform(), probe.Uniform()};
      const Prediction reference = predictor.PredictReference(x);
      if (!reference.has_value()) continue;
      ++answered;
      EXPECT_EQ(predictor.EstimateCost(x, reference.plan),
                reference.estimated_cost)
          << "point " << i << " decomposition " << decomposition;
    }
    EXPECT_GT(answered, 50u);
    EXPECT_EQ(predictor.EstimateCost({0.5, 0.5}, PlanId{999}), 0.0);
  }
}

TEST(LshHistogramsTest, CopiesAndMovesCarryStoredHalfWidths) {
  // The serving range builder reads half-widths stored at construction;
  // the reference recomputes them from the config. Each hand-written
  // special member must carry the stored values, so every copy and move
  // answers Predict and EstimateCost as PredictReference does. The
  // assignment targets start with another radius, hence other stored
  // half-widths, which a member that skipped them would keep.
  auto cfg = BaseConfig();
  cfg.noise_fraction = 0.002;
  auto other_cfg = cfg;
  other_cfg.radius = 0.3;
  Rng rng(41);
  const std::vector<LabeledPoint> sample =
      SamplePoints(2, 2000, HalfSpacePlan, &rng);
  const LshHistogramsPredictor source(cfg, sample);

  LshHistogramsPredictor copy_constructed(source);
  LshHistogramsPredictor move_source(source);
  LshHistogramsPredictor move_constructed(std::move(move_source));
  LshHistogramsPredictor copy_assigned(other_cfg, sample);
  copy_assigned = source;
  LshHistogramsPredictor move_assigned(other_cfg, sample);
  LshHistogramsPredictor move_assign_source(source);
  move_assigned = std::move(move_assign_source);

  const LshHistogramsPredictor stale(other_cfg, sample);
  Rng probe(43);
  size_t answered = 0;
  size_t stale_differs = 0;
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {probe.Uniform(), probe.Uniform()};
    const Prediction reference = source.PredictReference(x);
    answered += reference.has_value() ? 1 : 0;
    const Prediction old = stale.Predict(x);
    stale_differs += old.plan != reference.plan ||
                             old.confidence != reference.confidence
                         ? 1
                         : 0;
    for (const LshHistogramsPredictor* p :
         {&copy_constructed, &move_constructed, &copy_assigned,
          &move_assigned}) {
      const Prediction got = p->Predict(x);
      EXPECT_EQ(got.plan, reference.plan) << "point " << i;
      EXPECT_EQ(got.confidence, reference.confidence) << "point " << i;
      EXPECT_EQ(got.estimated_cost, reference.estimated_cost)
          << "point " << i;
      if (reference.has_value()) {
        EXPECT_EQ(p->EstimateCost(x, reference.plan),
                  reference.estimated_cost)
            << "point " << i;
      }
    }
  }
  EXPECT_GT(answered, 100u);
  // The radius the targets started with does change answers, so a stale
  // half-width could not pass unnoticed.
  EXPECT_GT(stale_differs, 0u);
}

TEST(LshHistogramsTest, PredictBatchOnEmptyPredictorReturnsNulls) {
  LshHistogramsPredictor predictor(BaseConfig());
  const std::vector<double> flat = {0.1, 0.2, 0.8, 0.9};
  const std::vector<Prediction> batch = predictor.PredictBatch(flat.data(), 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].has_value());
  EXPECT_FALSE(batch[1].has_value());
  EXPECT_TRUE(predictor.PredictBatch(flat.data(), 0).empty());
}

TEST(LshHistogramsTest, EstimateCostApproximatesLocalAverage) {
  Rng rng(3);
  LshHistogramsPredictor predictor(BaseConfig(),
                                   SamplePoints(2, 2000, HalfSpacePlan, &rng));
  const std::vector<double> x = {0.2, 0.2};
  const double estimated = predictor.EstimateCost(x, 1);
  // Plan-1 costs over its region span ~[100, 118]; the local average near
  // (0.2, 0.2) is ~104, but bounded-bucket smearing widens this.
  EXPECT_GT(estimated, 95.0);
  EXPECT_LT(estimated, 125.0);
  // A plan with no samples anywhere: no estimate.
  EXPECT_EQ(predictor.EstimateCost(x, 999), 0.0);
}

TEST(LshHistogramsTest, NoiseEliminationSuppressesSparsePlans) {
  // A handful of mislabeled points should not survive the noise floor.
  Rng rng(5);
  auto sample = SamplePoints(2, 2000, HalfSpacePlan, &rng);
  // Inject 5 noise points of plan 77 scattered in plan 1's region.
  for (int i = 0; i < 5; ++i) {
    sample.push_back({{0.05 + 0.02 * i, 0.1}, 77, 1.0});
  }
  auto strict_cfg = BaseConfig();
  strict_cfg.noise_fraction = 0.005;  // floor = 10 points
  LshHistogramsPredictor with_noise_elim(strict_cfg, sample);
  auto lax_cfg = BaseConfig();
  lax_cfg.noise_fraction = 0.0;
  LshHistogramsPredictor without(lax_cfg, sample);

  // With elimination, plan 77's density is clamped to zero, so plan 1
  // retains full confidence at the injection site.
  const auto strict_pred = with_noise_elim.Predict({0.09, 0.1});
  EXPECT_EQ(strict_pred.plan, 1u);
  // And the sparse plan can never be predicted anywhere.
  Rng probe(7);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {probe.Uniform(), probe.Uniform()};
    EXPECT_NE(with_noise_elim.Predict(x).plan, 77u);
  }
  (void)without;
}

TEST(LshHistogramsTest, ResetDropsEverything) {
  Rng rng(9);
  LshHistogramsPredictor predictor(BaseConfig(),
                                   SamplePoints(2, 500, HalfSpacePlan, &rng));
  EXPECT_GT(predictor.TotalSamples(), 0u);
  EXPECT_GT(predictor.DistinctPlans(), 0u);
  predictor.Reset();
  EXPECT_EQ(predictor.TotalSamples(), 0u);
  EXPECT_EQ(predictor.DistinctPlans(), 0u);
  EXPECT_FALSE(predictor.Predict({0.2, 0.2}).has_value());
}

TEST(LshHistogramsTest, SpaceScalesWithPlansAndTransformsAndBuckets) {
  auto cfg = BaseConfig();
  cfg.transform_count = 3;
  cfg.histogram_buckets = 20;
  LshHistogramsPredictor predictor(cfg);
  predictor.Insert({{0.2, 0.2}, 1, 1.0});
  EXPECT_EQ(predictor.SpaceBytes(), 3u * 20u * 12u);
  predictor.Insert({{0.8, 0.8}, 2, 1.0});
  EXPECT_EQ(predictor.SpaceBytes(), 2u * 3u * 20u * 12u);
}

TEST(LshHistogramsTest, MoreBucketsImproveRecall) {
  Rng rng(11);
  auto sample = SamplePoints(2, 3000, HalfSpacePlan, &rng);
  auto coarse_cfg = BaseConfig();
  coarse_cfg.histogram_buckets = 6;
  auto fine_cfg = BaseConfig();
  fine_cfg.histogram_buckets = 80;
  LshHistogramsPredictor coarse(coarse_cfg, sample);
  LshHistogramsPredictor fine(fine_cfg, sample);
  MetricsAccumulator coarse_m, fine_m;
  Rng test_rng(13);
  for (int i = 0; i < 600; ++i) {
    std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    coarse_m.Record(coarse.Predict(x).plan, HalfSpacePlan(x));
    fine_m.Record(fine.Predict(x).plan, HalfSpacePlan(x));
  }
  EXPECT_GT(fine_m.Recall(), coarse_m.Recall());
}

TEST(LshHistogramsTest, HighDimensionalInputWithReduction) {
  // 6-dimensional plan space explicitly reduced to s = 3 (the paper's
  // "s << r when dimensionality reduction is necessary"). At high
  // dimensions the radius must grow for the query ball to hold comparable
  // sample mass (the paper likewise averages over radii up to d = 0.2).
  auto cfg = BaseConfig();
  cfg.dimensions = 6;
  cfg.output_dims = 3;
  cfg.radius = 0.25;
  Rng rng(17);
  auto label = [](const std::vector<double>& x) -> PlanId {
    return x[0] + x[1] + x[2] < 1.5 ? 1 : 2;
  };
  LshHistogramsPredictor predictor(cfg, SamplePoints(6, 4000, label, &rng));
  MetricsAccumulator metrics;
  Rng test_rng(19);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = test_rng.Uniform();
    metrics.Record(predictor.Predict(x).plan, label(x));
  }
  // Uniform sampling of a 6-D space is sparse (about 5 samples per query
  // ball) and the 6->3 reduction blurs the boundary, so recall is modest —
  // the confidence gate must keep precision high regardless.
  EXPECT_GT(metrics.Precision(), 0.8);
  EXPECT_GT(metrics.Recall(), 0.05);
}

TEST(LshHistogramsTest, QueryRangesClampedToHistogramDomain) {
  // Regression: near a plan-space corner, T(x) +/- delta used to spill
  // outside [0, 1] — outside the histogram's domain. The interval must
  // instead slide inward, keeping both its clamp AND its full 2*delta
  // curve coverage.
  auto cfg = BaseConfig();
  cfg.radius = 0.2;  // wide delta so corners definitely overflow
  LshHistogramsPredictor predictor(cfg);

  const std::vector<std::vector<double>> probes = {
      {0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}};
  const auto center_ranges = predictor.QueryRanges({0.5, 0.5});
  for (const auto& x : probes) {
    const auto ranges = predictor.QueryRanges(x);
    ASSERT_EQ(ranges.size(), center_ranges.size());
    for (size_t t = 0; t < ranges.size(); ++t) {
      ASSERT_EQ(ranges[t].size(), 1u);
      const ZInterval& iv = ranges[t][0];
      EXPECT_GE(iv.lo, 0.0);
      EXPECT_LE(iv.hi, 1.0);
      EXPECT_LE(iv.lo, iv.hi);
      // Sliding preserves the curve length the center point gets.
      EXPECT_NEAR(iv.width(), center_ranges[t][0].width(), 1e-12);
    }
  }
}

TEST(LshHistogramsTest, DeterministicForSeed) {
  Rng rng_a(21), rng_b(21);
  auto cfg = BaseConfig();
  LshHistogramsPredictor a(cfg, SamplePoints(2, 500, HalfSpacePlan, &rng_a));
  LshHistogramsPredictor b(cfg, SamplePoints(2, 500, HalfSpacePlan, &rng_b));
  Rng test_rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    const auto pa = a.Predict(x);
    const auto pb = b.Predict(x);
    EXPECT_EQ(pa.plan, pb.plan);
    EXPECT_EQ(pa.confidence, pb.confidence);
  }
}

}  // namespace
}  // namespace ppc
