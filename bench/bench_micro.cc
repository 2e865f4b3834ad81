// Operation-level microbenchmarks (google-benchmark) backing Table I's
// complexity column: optimizer calls per template, predictor insert and
// predict latency, histogram range queries (the EstimateCount oracle and
// the served probe kernel), LSH transform application,
// and Z-order interleaving.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "clustering/density_predictor.h"
#include "lsh/simd.h"
#include "lsh/zorder.h"
#include "ppc/lsh_histograms_predictor.h"
#include "stats/streaming_histogram.h"

namespace ppc {
namespace bench {
namespace {

void BM_Optimize(benchmark::State& state, const char* name) {
  Experiment exp(name);
  Rng rng(1);
  std::vector<std::vector<double>> points =
      UniformPlanSpaceSample(exp.dims(), 64, &rng);
  size_t i = 0;
  for (auto _ : state) {
    auto result =
        exp.optimizer().Optimize(exp.prepared(), points[i++ % points.size()]);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK_CAPTURE(BM_Optimize, Q1, "Q1");
BENCHMARK_CAPTURE(BM_Optimize, Q5, "Q5");
BENCHMARK_CAPTURE(BM_Optimize, Q8, "Q8");

void BM_BaselinePredict(benchmark::State& state) {
  Experiment exp("Q5");
  Rng rng(2);
  auto sample = exp.LabeledSample(static_cast<size_t>(state.range(0)), &rng);
  DensityPredictor::Config cfg;
  cfg.radius = 0.1;
  cfg.confidence_threshold = 0.7;
  DensityPredictor predictor(cfg, sample);
  auto test = UniformPlanSpaceSample(exp.dims(), 64, &rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Predict(test[i++ % test.size()]));
  }
}
BENCHMARK(BM_BaselinePredict)->Arg(400)->Arg(1600)->Arg(6400);

void BM_LshHistogramsPredict(benchmark::State& state) {
  Experiment exp("Q5");
  Rng rng(3);
  auto sample = exp.LabeledSample(static_cast<size_t>(state.range(0)), &rng);
  LshHistogramsPredictor::Config cfg;
  cfg.dimensions = exp.dims();
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  cfg.radius = 0.1;
  cfg.confidence_threshold = 0.7;
  LshHistogramsPredictor predictor(cfg, sample);
  auto test = UniformPlanSpaceSample(exp.dims(), 64, &rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Predict(test[i++ % test.size()]));
  }
}
BENCHMARK(BM_LshHistogramsPredict)->Arg(400)->Arg(1600)->Arg(6400);

void BM_LshHistogramsInsert(benchmark::State& state) {
  LshHistogramsPredictor::Config cfg;
  cfg.dimensions = 4;
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  LshHistogramsPredictor predictor(cfg);
  Rng rng(4);
  for (auto _ : state) {
    LabeledPoint p;
    p.coords = {rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()};
    p.plan = 1 + rng.UniformInt(uint64_t{8});
    p.cost = rng.Uniform(1.0, 100.0);
    predictor.Insert(p);
  }
}
BENCHMARK(BM_LshHistogramsInsert);

void BM_StreamingHistogramRangeQuery(benchmark::State& state) {
  StreamingHistogram histogram(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    histogram.Insert(rng.Uniform(), rng.Uniform(1.0, 100.0));
  }
  for (auto _ : state) {
    const double lo = rng.Uniform() * 0.9;
    benchmark::DoNotOptimize(histogram.EstimateCount(lo, lo + 0.1));
  }
}
BENCHMARK(BM_StreamingHistogramRangeQuery)->Arg(40)->Arg(160);

// The served form of the same range query: the dispatched probe kernel on
// the histogram's cached probe table.
void BM_StreamingHistogramProbe(benchmark::State& state) {
  StreamingHistogram histogram(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    histogram.Insert(rng.Uniform(), rng.Uniform(1.0, 100.0));
  }
  const StreamingHistogram::Probe probe = histogram.probe();
  for (auto _ : state) {
    const double lo = rng.Uniform() * 0.9;
    benchmark::DoNotOptimize(simd::HistogramRangeCount(
        probe.left, probe.right, probe.count, probe.centroid, probe.size, lo,
        lo + 0.1));
  }
}
BENCHMARK(BM_StreamingHistogramProbe)->Arg(40)->Arg(160);

void BM_TransformApply(benchmark::State& state) {
  TransformConfig cfg;
  cfg.input_dims = static_cast<int>(state.range(0));
  cfg.output_dims = DefaultOutputDims(cfg.input_dims);
  Rng rng(6);
  RandomizedTransform transform(cfg, &rng);
  std::vector<double> point(static_cast<size_t>(cfg.input_dims), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.LinearizedPosition(point));
  }
}
BENCHMARK(BM_TransformApply)->Arg(2)->Arg(6);

void BM_ZOrderInterleave(benchmark::State& state) {
  ZOrderCurve curve(3, 10);
  std::vector<uint32_t> cells = {511, 277, 800};
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Interleave(cells));
  }
}
BENCHMARK(BM_ZOrderInterleave);

}  // namespace
}  // namespace bench
}  // namespace ppc

BENCHMARK_MAIN();
