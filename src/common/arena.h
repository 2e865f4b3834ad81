#ifndef PPC_COMMON_ARENA_H_
#define PPC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ppc {

/// A per-request bump allocator for the serving fast path.
///
/// The batched predict path needs a handful of scratch arrays (transformed
/// coordinates, per-transform counts, cost workspaces) whose sizes
/// depend on the batch; allocating them from the heap on every request is
/// measurable at the target request rates. An Arena hands out raw storage
/// by bumping an offset into a block, and Reset() recycles everything at
/// once between requests.
///
/// Growth/steady-state contract: when a request overflows the current
/// block, a larger block is chained on (old pointers stay valid until
/// Reset). The *next* Reset consolidates all blocks into one block big
/// enough for everything the previous request used, so a workload that
/// repeats the same allocation pattern reaches a single-block steady state
/// and then performs ZERO heap operations per request — the property the
/// allocation-counting predictor test pins down.
///
/// Alignment: every allocation is aligned to alignof(std::max_align_t).
/// Not thread-safe; intended use is one thread_local arena per worker.
class Arena {
 public:
  Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns uninitialized storage for `count` objects of type T. T must
  /// be trivially destructible (nothing is ever destroyed) and require no
  /// more than max_align_t alignment. count == 0 returns a non-null
  /// one-past pointer that must not be dereferenced.
  template <typename T>
  T* Array(size_t count) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "Arena only guarantees max_align_t alignment");
    return static_cast<T*>(Allocate(count * sizeof(T)));
  }

  /// Recycles all storage. Previously returned pointers become invalid.
  /// Multi-block arenas consolidate into one block sized for the previous
  /// request (see class comment); single-block arenas touch no heap.
  void Reset() {
    if (blocks_.size() > 1) Consolidate();
    offset_ = 0;
  }

  /// Total block capacity currently held (diagnostics / tests).
  size_t CapacityBytes() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Number of blocks currently held; 1 in steady state (tests).
  size_t BlockCount() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  static constexpr size_t kAlignment = alignof(std::max_align_t);
  static constexpr size_t kMinBlockBytes = 4096;

  static size_t AlignUp(size_t n) {
    return (n + kAlignment - 1) & ~(kAlignment - 1);
  }

  void* Allocate(size_t bytes) {
    bytes = AlignUp(bytes);
    if (blocks_.empty() || offset_ + bytes > blocks_.back().size) {
      AddBlock(bytes);
      offset_ = 0;
    }
    char* out = blocks_.back().data.get() + offset_;
    offset_ += bytes;
    return out;
  }

  void AddBlock(size_t min_bytes) {
    // Geometric growth over the total already held, so a request that
    // outgrows its arena needs O(log n) blocks before steady state.
    size_t size = kMinBlockBytes;
    const size_t held = CapacityBytes();
    if (held > size) size = held;
    while (size < min_bytes) size *= 2;
    blocks_.push_back(Block{std::make_unique<char[]>(size), size});
  }

  void Consolidate() {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    blocks_.clear();
    blocks_.push_back(Block{std::make_unique<char[]>(total), total});
  }

  std::vector<Block> blocks_;
  size_t offset_ = 0;  // bump offset into blocks_.back()
};

}  // namespace ppc

#endif  // PPC_COMMON_ARENA_H_
