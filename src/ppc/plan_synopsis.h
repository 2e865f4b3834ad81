#ifndef PPC_PPC_PLAN_SYNOPSIS_H_
#define PPC_PPC_PLAN_SYNOPSIS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lsh/zorder.h"
#include "stats/streaming_histogram.h"

namespace ppc {

/// The serving fast path's view of a batch's query ranges: all intervals
/// in one flat array, transform-major (every interval of transform 0, then
/// transform 1, ...), with slot (i, p) = i * point_count + p addressing
/// point p's intervals in transform i. The flat counterpart of
/// LshHistogramsPredictor::QueryRanges' nested vectors, whose per-slot
/// allocations used to dominate the predict profile. Non-owning — the
/// backing storage lives in the caller's per-request scratch.
struct FlatQueryRanges {
  const ZInterval* intervals = nullptr;
  /// Slot offsets into `intervals`: slot k covers
  /// [offsets[k], offsets[k+1]). nullptr means every slot holds exactly
  /// one interval (the paper's single-range mode) and slot k is
  /// intervals[k .. k+1).
  const uint32_t* offsets = nullptr;
  size_t transform_count = 0;
  size_t point_count = 0;

  /// [begin, end) of slot (transform i, point p)'s intervals.
  std::pair<const ZInterval*, const ZInterval*> Slice(size_t i,
                                                      size_t p) const {
    const size_t k = i * point_count + p;
    if (offsets == nullptr) return {intervals + k, intervals + k + 1};
    return {intervals + offsets[k], intervals + offsets[k + 1]};
  }
};

/// The histogram synopsis of one query plan's sample distribution: one
/// bounded-bucket database histogram per randomized transform, keyed by
/// Z-order-linearized position (paper Sec. IV-C: "a separate histogram is
/// created for every query plan in the plan space ... a total of t x n
/// histograms are allocated").
class PlanSynopsis {
 public:
  PlanSynopsis(size_t transform_count, size_t max_buckets,
               StreamingHistogram::MergePolicy policy);

  /// Records one sample of this plan at `position` in transform
  /// `transform_idx`'s linearized space, with execution cost `cost`.
  void Insert(size_t transform_idx, double position, double cost);

  /// Density estimate: the median over transforms of the count in
  /// ranges[i], the (sorted, disjoint) set of curve intervals to query in
  /// transform i; the per-transform count is the sum over intervals. The
  /// reference form behind LshHistogramsPredictor::PredictReference.
  double MedianCount(const std::vector<std::vector<ZInterval>>& ranges) const;

  /// Median over transforms of the average cost in the same ranges, taken
  /// over transforms with non-zero local density. Reference form, as above.
  double MedianAverageCost(
      const std::vector<std::vector<ZInterval>>& ranges) const;

  /// MedianAverageCost of one point's slots computed from the histograms'
  /// probe tables (StreamingHistogram::probe) via the runtime-dispatched
  /// simd::HistogramRangeCountCost kernel, writing the per-transform costs
  /// into `scratch` (>= transform_count doubles). Bit-identical to the
  /// interval-list MedianAverageCost (the oracle): per interval the
  /// kernel's count matches EstimateCount bit for bit and the caller
  /// reconstructs c * EstimateAverageCost as c * (cost / c).
  double MedianAverageCostFromProbes(const FlatQueryRanges& ranges,
                                     size_t point, double* scratch) const;

  /// Batched MedianAverageCostFromProbes over the `n` points
  /// point_idx[0..n) of a single-range batch (ranges.offsets == nullptr;
  /// callers in interval-decomposition mode use the per-point variant).
  /// One across-queries kernel call per transform covers every selected
  /// point; out[k] receives point_idx[k]'s median average cost,
  /// bit-identical to the per-point form. Caller-provided workspaces:
  /// bounds_ws >= 2 * n, counts_ws and costs_ws >= transform_count * n,
  /// median_ws >= transform_count doubles.
  void BatchAverageCostsFromProbes(const FlatQueryRanges& ranges,
                                   const uint32_t* point_idx, size_t n,
                                   double* bounds_ws, double* counts_ws,
                                   double* costs_ws, double* median_ws,
                                   double* out) const;

  /// Batched per-transform counts for the predict hot path: the summed
  /// count of slot (transform i, point p)'s intervals lands in
  /// `counts_out[i * ranges.point_count + p]`. Iterates transform-outer /
  /// point-inner so one histogram's bucket array stays cache-resident
  /// across the whole batch — the "group range queries per intermediate
  /// space" amortization. Each interval is counted from the histogram's
  /// probe table by the runtime-dispatched simd::HistogramRangeCount
  /// kernel, which reproduces StreamingHistogram::EstimateCount bit for
  /// bit; a median assembled from `counts_out` therefore equals the
  /// interval-list MedianCount (the oracle).
  void BatchTransformCounts(const FlatQueryRanges& ranges,
                            double* counts_out) const;

  /// Samples inserted (identical across transforms; per-transform count).
  size_t SampleCount() const;

  /// Paper accounting: t * b_h * 12 bytes for this plan.
  uint64_t SpaceBytes() const;

  void Clear();

  size_t transform_count() const { return histograms_.size(); }
  const StreamingHistogram& histogram(size_t i) const {
    return histograms_[i];
  }

  /// Appends a binary snapshot of all per-transform histograms.
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a synopsis from a snapshot.
  static Result<PlanSynopsis> Deserialize(ByteReader* reader);

 private:
  PlanSynopsis() = default;  // used by Deserialize

  std::vector<StreamingHistogram> histograms_;
};

}  // namespace ppc

#endif  // PPC_PPC_PLAN_SYNOPSIS_H_
