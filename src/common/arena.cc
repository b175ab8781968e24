#include "src/common/arena.h"

#include <algorithm>

#include "src/common/check.h"

namespace pad {

Arena::Arena(size_t first_chunk_bytes)
    : next_chunk_bytes_(std::max<size_t>(first_chunk_bytes, 256)) {}

void Arena::AddChunk(size_t bytes) {
  // Any free-listed chunk that fits (plus worst-case alignment padding) is
  // reused before malloc is asked for more.
  const size_t needed = bytes + kCacheLine;
  for (size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].capacity >= needed) {
      live_.push_back(std::move(free_[i]));
      free_.erase(free_.begin() + static_cast<ptrdiff_t>(i));
      next_ = live_.back().data.get();
      end_ = next_ + live_.back().capacity;
      return;
    }
  }
  const size_t capacity = std::max(needed, next_chunk_bytes_);
  next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kMaxChunkBytes);
  Chunk chunk;
  // operator new[] for std::byte returns memory aligned for max_align_t
  // (16 on the targets we build); kCacheLine alignment is produced by the
  // bump cursor itself, so the chunk only needs the padding headroom above.
  // Not zero-filled: the arena hands out uninitialized storage anyway, and a
  // chunk's pages then become resident only as allocations reach them.
  chunk.data = std::make_unique_for_overwrite<std::byte[]>(capacity);
  chunk.capacity = capacity;
  live_.push_back(std::move(chunk));
  next_ = live_.back().data.get();
  end_ = next_ + capacity;
  ++chunks_allocated_;
  bytes_reserved_ += static_cast<int64_t>(capacity);
}

void* Arena::Allocate(size_t bytes, size_t alignment) {
  PAD_DCHECK(alignment > 0 && (alignment & (alignment - 1)) == 0);
  PAD_DCHECK(alignment <= kCacheLine);
  ++allocations_;
  // Zero-byte requests still bump by one so distinct requests get distinct
  // addresses (the documented contract, matching operator new).
  const size_t request = bytes == 0 ? 1 : bytes;
  const size_t mask = alignment - 1;
  uintptr_t cursor = reinterpret_cast<uintptr_t>(next_);
  uintptr_t aligned = (cursor + mask) & ~static_cast<uintptr_t>(mask);
  if (next_ == nullptr || aligned + request > reinterpret_cast<uintptr_t>(end_)) {
    AddChunk(request);
    cursor = reinterpret_cast<uintptr_t>(next_);
    aligned = (cursor + mask) & ~static_cast<uintptr_t>(mask);
  }
  next_ = reinterpret_cast<std::byte*>(aligned + request);
  bytes_in_use_ += static_cast<int64_t>(aligned + request - cursor);
  return reinterpret_cast<void*>(aligned);
}

void Arena::Reset() {
  // Keep the largest chunk hot at the front of the free list so the next
  // fill cycle lands in one chunk from the start.
  for (Chunk& chunk : live_) {
    free_.push_back(std::move(chunk));
  }
  live_.clear();
  std::sort(free_.begin(), free_.end(),
            [](const Chunk& a, const Chunk& b) { return a.capacity > b.capacity; });
  next_ = nullptr;
  end_ = nullptr;
  bytes_in_use_ = 0;
}

}  // namespace pad
