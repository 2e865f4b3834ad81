#ifndef PPC_STATS_STREAMING_HISTOGRAM_H_
#define PPC_STATS_STREAMING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace ppc {

/// A bounded-bucket streaming histogram: the "database histogram" the paper
/// stores plan-space synopses in (Sec. IV-C).
///
/// Supports online insertion of (position, cost) observations, where
/// `position` is a Z-order-linearized plan-space coordinate in [0, 1], and
/// constant-time-per-bucket range queries for both the observation count
/// (plan density) and the average plan cost.
///
/// When insertion would exceed the bucket budget, the adjacent bucket pair
/// whose merge increases the weighted variance the least is consolidated
/// ("standard histogram construction techniques that choose boundaries to
/// minimize estimation error", Sec. IV-C). Each bucket costs 12 bytes by the
/// paper's accounting: a 4-byte boundary, a 4-byte count, and a 4-byte
/// average cost.
class StreamingHistogram {
 public:
  /// Merge policy; kMinVarianceIncrease is the default used everywhere,
  /// kEquiWidth exists for the histogram-policy ablation bench.
  enum class MergePolicy {
    kMinVarianceIncrease,
    kNearestCentroid,
    kEquiWidth,
  };

  explicit StreamingHistogram(
      size_t max_buckets,
      MergePolicy policy = MergePolicy::kMinVarianceIncrease);

  /// Inserts one observation at `position` with execution cost `cost`.
  /// A non-finite `cost` leaves a cost sum that Deserialize rejects, so
  /// LshHistogramsPredictor::Insert drops such points before they get here.
  void Insert(double position, double cost);

  /// Estimated number of observations with position in [lo, hi], with linear
  /// interpolation across partially-covered buckets.
  double EstimateCount(double lo, double hi) const;

  /// Exports the per-bucket probe table the vectorized range-count kernel
  /// (simd::HistogramRangeCount) consumes: bucket extents via
  /// BucketExtent, raw counts and centroids, one entry per bucket in
  /// bucket order. Each output array must hold bucket_count() doubles.
  /// The values are exactly what EstimateCount computes internally, so a
  /// kernel fed this table reproduces EstimateCount bit for bit.
  void ExportProbe(double* left, double* right, double* count,
                   double* centroid) const;

  /// Companion to ExportProbe for the cost-estimating kernel
  /// (simd::HistogramRangeCountCost): per-bucket cost sums, one entry per
  /// bucket in bucket order. `cost` must hold bucket_count() doubles.
  void ExportProbeCosts(double* cost) const;

  /// The ExportProbe + ExportProbeCosts table, kept current by every
  /// mutation (Insert, Clear, Deserialize) so readers probe it without
  /// recomputing a single bucket extent. Each array holds `size` =
  /// bucket_count() entries; valid until the next mutation.
  struct Probe {
    const double* left;
    const double* right;
    const double* count;
    const double* cost;
    const double* centroid;
    size_t size;
  };
  Probe probe() const;

  /// Count-weighted average cost of observations in [lo, hi]. Returns 0
  /// when the estimated count is 0.
  double EstimateAverageCost(double lo, double hi) const;

  /// Total number of inserted observations.
  size_t TotalCount() const { return total_count_; }

  size_t bucket_count() const { return buckets_.size(); }
  size_t max_buckets() const { return max_buckets_; }

  /// Space consumption under the paper's 12-bytes-per-bucket accounting
  /// (capacity, not current occupancy: the budget is reserved up front).
  size_t SpaceBytes() const { return max_buckets_ * 12; }

  /// Drops all contents (used when drift detection resets a template).
  void Clear();

  /// Human-readable bucket dump for debugging and examples.
  std::string DebugString() const;

  /// Appends a binary snapshot (configuration + buckets) to `writer`.
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a histogram from a snapshot. Fails with OutOfRange on
  /// truncation and InvalidArgument on malformed content: centroids that
  /// are NaN, outside [0, 1] or descending, and counts or cost sums that
  /// are negative (counts) or non-finite.
  static Result<StreamingHistogram> Deserialize(ByteReader* reader);

 private:
  struct Bucket {
    double centroid = 0.0;
    double count = 0.0;
    double cost_sum = 0.0;
  };

  /// Index of the best adjacent pair (i, i+1) to merge under the policy.
  size_t PickMergeIndex() const;
  void MergeAt(size_t i);
  /// Extent [left, right) over which bucket i's mass is assumed spread:
  /// midpoints to neighbouring centroids, clamped to [0, 1] at the ends.
  void BucketExtent(size_t i, double* left, double* right) const;
  /// Recomputes probe_ from buckets_; every mutation ends with it.
  void RebuildProbe();

  size_t max_buckets_;
  MergePolicy policy_;
  std::vector<Bucket> buckets_;  // sorted by centroid
  size_t total_count_ = 0;
  /// [left | right | count | cost | centroid], bucket_count() each.
  std::vector<double> probe_;
};

}  // namespace ppc

#endif  // PPC_STATS_STREAMING_HISTOGRAM_H_
