#include "ppc/plan_synopsis.h"

#include "common/macros.h"
#include "common/math_utils.h"
#include "lsh/simd.h"

namespace ppc {

PlanSynopsis::PlanSynopsis(size_t transform_count, size_t max_buckets,
                           StreamingHistogram::MergePolicy policy) {
  PPC_CHECK(transform_count >= 1);
  histograms_.reserve(transform_count);
  for (size_t i = 0; i < transform_count; ++i) {
    histograms_.emplace_back(max_buckets, policy);
  }
}

void PlanSynopsis::Insert(size_t transform_idx, double position,
                          double cost) {
  PPC_DCHECK(transform_idx < histograms_.size());
  histograms_[transform_idx].Insert(position, cost);
}

double PlanSynopsis::MedianCount(
    const std::vector<std::vector<ZInterval>>& ranges) const {
  PPC_DCHECK(ranges.size() == histograms_.size());
  std::vector<double> counts;
  counts.reserve(histograms_.size());
  for (size_t i = 0; i < histograms_.size(); ++i) {
    double count = 0.0;
    for (const ZInterval& interval : ranges[i]) {
      count += histograms_[i].EstimateCount(interval.lo, interval.hi);
    }
    counts.push_back(count);
  }
  return Median(std::move(counts));
}

double PlanSynopsis::MedianAverageCost(
    const std::vector<std::vector<ZInterval>>& ranges) const {
  PPC_DCHECK(ranges.size() == histograms_.size());
  std::vector<double> costs;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    double count = 0.0;
    double cost_sum = 0.0;
    for (const ZInterval& interval : ranges[i]) {
      const double c =
          histograms_[i].EstimateCount(interval.lo, interval.hi);
      if (c <= 0.0) continue;
      count += c;
      cost_sum +=
          c * histograms_[i].EstimateAverageCost(interval.lo, interval.hi);
    }
    if (count > 0.0) costs.push_back(cost_sum / count);
  }
  return costs.empty() ? 0.0 : Median(std::move(costs));
}

void PlanSynopsis::BatchTransformCounts(const FlatQueryRanges& ranges,
                                        double* counts_out) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  for (size_t i = 0; i < histograms_.size(); ++i) {
    // The histogram keeps its probe table current on Insert, so the
    // extent math that EstimateCount redoes for every (range, bucket)
    // pair is never paid on the read path; the kernel streams the flat
    // arrays.
    const StreamingHistogram::Probe probe = histograms_[i].probe();
    double* row = counts_out + i * ranges.point_count;
    if (ranges.offsets == nullptr) {
      // Single-range mode: transform i's intervals are one contiguous
      // (lo, hi) pair per point, exactly the bounds layout the
      // across-queries kernel consumes — one call counts the whole batch
      // with each lane running the scalar accumulation sequence.
      static_assert(sizeof(ZInterval) == 2 * sizeof(double));
      simd::HistogramRangeCountMany(
          probe.left, probe.right, probe.count, probe.centroid, probe.size,
          reinterpret_cast<const double*>(ranges.intervals +
                                          i * ranges.point_count),
          ranges.point_count, row);
      continue;
    }
    for (size_t p = 0; p < ranges.point_count; ++p) {
      double total = 0.0;
      const auto [begin, end] = ranges.Slice(i, p);
      for (const ZInterval* interval = begin; interval != end; ++interval) {
        total += simd::HistogramRangeCount(probe.left, probe.right,
                                           probe.count, probe.centroid,
                                           probe.size, interval->lo,
                                           interval->hi);
      }
      row[p] = total;
    }
  }
}

double PlanSynopsis::MedianAverageCostFromProbes(const FlatQueryRanges& ranges,
                                                 size_t point,
                                                 double* scratch) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  size_t n = 0;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const StreamingHistogram::Probe probe = histograms_[i].probe();
    double count = 0.0;
    double cost_sum = 0.0;
    const auto [begin, end] = ranges.Slice(i, point);
    for (const ZInterval* interval = begin; interval != end; ++interval) {
      double c, cost;
      simd::HistogramRangeCountCost(probe.left, probe.right, probe.count,
                                    probe.cost, probe.centroid, probe.size,
                                    interval->lo, interval->hi, &c, &cost);
      if (c <= 0.0) continue;
      count += c;
      // c * (cost / c), not cost: the scalar oracle computes
      // c * EstimateAverageCost(..) and EstimateAverageCost rounds the
      // quotient before the caller multiplies it back. Collapsing the
      // pair to `cost` would skip both roundings and break bit-identity.
      cost_sum += c * (cost / c);
    }
    if (count > 0.0) scratch[n++] = cost_sum / count;
  }
  return n == 0 ? 0.0 : MedianInPlace(scratch, n);
}

void PlanSynopsis::BatchAverageCostsFromProbes(
    const FlatQueryRanges& ranges, const uint32_t* point_idx, size_t n,
    double* bounds_ws, double* counts_ws, double* costs_ws,
    double* median_ws, double* out) const {
  PPC_DCHECK(ranges.offsets == nullptr);
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  const size_t t = histograms_.size();
  for (size_t i = 0; i < t; ++i) {
    // Gather the selected points' single intervals for this transform into
    // a dense bounds array, then count+cost all of them in one sweep.
    const ZInterval* row = ranges.intervals + i * ranges.point_count;
    for (size_t k = 0; k < n; ++k) {
      const ZInterval& interval = row[point_idx[k]];
      bounds_ws[2 * k] = interval.lo;
      bounds_ws[2 * k + 1] = interval.hi;
    }
    const StreamingHistogram::Probe probe = histograms_[i].probe();
    simd::HistogramRangeCountCostMany(
        probe.left, probe.right, probe.count, probe.cost, probe.centroid,
        probe.size, bounds_ws, n, counts_ws + i * n, costs_ws + i * n);
  }
  for (size_t k = 0; k < n; ++k) {
    // Same per-transform accumulation as MedianAverageCostFromProbes,
    // degenerate single-interval form: count = c, cost_sum = c * (cost/c).
    size_t m = 0;
    for (size_t i = 0; i < t; ++i) {
      const double c = counts_ws[i * n + k];
      if (c <= 0.0) continue;
      const double cost_sum = c * (costs_ws[i * n + k] / c);
      median_ws[m++] = cost_sum / c;
    }
    out[k] = m == 0 ? 0.0 : MedianInPlace(median_ws, m);
  }
}

size_t PlanSynopsis::SampleCount() const {
  return histograms_.empty() ? 0 : histograms_.front().TotalCount();
}

uint64_t PlanSynopsis::SpaceBytes() const {
  uint64_t total = 0;
  for (const StreamingHistogram& h : histograms_) total += h.SpaceBytes();
  return total;
}

void PlanSynopsis::Clear() {
  for (StreamingHistogram& h : histograms_) h.Clear();
}

void PlanSynopsis::SerializeTo(ByteWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(histograms_.size()));
  for (const StreamingHistogram& h : histograms_) h.SerializeTo(writer);
}

Result<PlanSynopsis> PlanSynopsis::Deserialize(ByteReader* reader) {
  PPC_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  if (count == 0) {
    return Status::InvalidArgument("synopsis needs >= 1 histogram");
  }
  PlanSynopsis synopsis;
  synopsis.histograms_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PPC_ASSIGN_OR_RETURN(StreamingHistogram histogram,
                         StreamingHistogram::Deserialize(reader));
    synopsis.histograms_.push_back(std::move(histogram));
  }
  return synopsis;
}

}  // namespace ppc
