// Bump (arena) allocation for the per-market simulation hot path.
//
// The per-user kernel used to heap-allocate every workload expansion: slot
// and transfer vectors, feed-event arrays, predictor series — hundreds of
// malloc/free pairs per simulated user, which the population-scale profile
// showed as pure churn (the objects all die together when the market
// finishes). An Arena replaces that with pointer-bump allocation out of
// geometrically growing chunks: allocation is a pointer increment, and the
// whole market's scratch is released in O(chunks) by Reset().
//
// Two ways to use it:
//   * Arena::Allocate/NewArray for raw POD blocks, and
//   * ArenaVector<T> (std::vector with an ArenaAllocator) when vector
//     semantics (push_back, size) are wanted on top of arena storage.
//
// Reset() retires every chunk to a free list and reuses them on the next
// fill cycle, so a steady-state market loop performs zero malloc calls in
// the arena after the first market sized it. Individual Deallocate is a
// no-op by design — an arena is for objects with a common lifetime.
//
// Chunks are cache-line aligned and allocations are rounded to at least
// 8-byte alignment (over-alignment supported up to kCacheLine), following
// the mxtasking cache/alignment idiom the ROADMAP names for this path.
// Chunks are never zero-filled — every allocation is uninitialized storage —
// so the untouched tail of the last chunk (up to 4 MiB) costs address space,
// not resident memory.
//
// Thread-compatibility: an Arena is single-threaded by design (one per
// market lane); distinct lanes use distinct arenas.
#ifndef ADPAD_SRC_COMMON_ARENA_H_
#define ADPAD_SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace pad {

// The destructive-interference granularity the layout code aligns to.
inline constexpr size_t kCacheLine = 64;

class Arena {
 public:
  // `first_chunk_bytes` sizes the initial chunk; later chunks double up to
  // kMaxChunkBytes. The first chunk is not allocated until first use.
  explicit Arena(size_t first_chunk_bytes = kDefaultChunkBytes);
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `alignment` (power of two,
  // <= kCacheLine). Never returns nullptr; bytes == 0 yields a unique
  // non-null pointer into the current chunk.
  void* Allocate(size_t bytes, size_t alignment = alignof(std::max_align_t));

  // Typed helper: uninitialized storage for `n` objects of T.
  template <typename T>
  T* NewArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Retires every live chunk to the free list and restarts bumping from the
  // first of them. All outstanding pointers are invalidated; no destructors
  // run (arena objects must be trivially destructible or externally
  // destroyed). Chunk memory is retained for reuse.
  void Reset();

  // --- Stats (the allocation-regression test contract) ------------------
  // Number of Allocate calls since construction.
  int64_t allocations() const { return allocations_; }
  // Bytes handed out since the last Reset (including alignment padding).
  int64_t bytes_in_use() const { return bytes_in_use_; }
  // Bytes of chunk capacity currently owned (live + free-listed).
  int64_t bytes_reserved() const { return bytes_reserved_; }
  // malloc-backed chunk allocations since construction. Steady state after
  // warm-up: this stops growing, which is exactly what the regression test
  // asserts.
  int64_t chunks_allocated() const { return chunks_allocated_; }

  static constexpr size_t kDefaultChunkBytes = size_t{64} << 10;  // 64 KiB.
  static constexpr size_t kMaxChunkBytes = size_t{4} << 20;       // 4 MiB.

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
  };

  // Makes the bump region at least `bytes` (+ worst-case padding) large,
  // reusing a free-listed chunk when one fits.
  void AddChunk(size_t bytes);

  std::vector<Chunk> live_;   // Chunks in use; back() is the bump target.
  std::vector<Chunk> free_;   // Retired by Reset, waiting for reuse.
  std::byte* next_ = nullptr;  // Bump cursor inside live_.back().
  std::byte* end_ = nullptr;
  size_t next_chunk_bytes_;

  int64_t allocations_ = 0;
  int64_t bytes_in_use_ = 0;
  int64_t bytes_reserved_ = 0;
  int64_t chunks_allocated_ = 0;
};

// std-compatible allocator over an Arena. Deallocate is a no-op; memory is
// reclaimed by Arena::Reset. Containers using it must not outlive the arena.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->NewArray<T>(n); }
  void deallocate(T*, size_t) {}  // Bulk-freed by Arena::Reset.

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_ARENA_H_
