// Monotone bump arena + std-compatible allocator for per-session scratch.
//
// The query engines keep node-sized scratch arrays (label matrices, parent
// trees, heap slots) alive across queries; what varies per query is only
// which slots are *logically* live, and the EpochArray mechanism already
// clears those in O(touched). What remained was the allocation story: a
// freshly constructed engine faults dozens of small heap blocks before its
// first query. An Arena backs all of a
// workspace's containers with a few large chained blocks, so constructing a
// per-thread engine touches one allocation path and repeated queries reuse
// the same contiguous memory.
//
// The arena is *monotone*: allocate() only bumps, deallocate() is a no-op.
// Containers that regrow leak their old storage inside the arena until
// reset() — acceptable because scratch containers grow to a high-water mark
// and then stay. reset() rewinds every block (an epoch reset of the memory
// itself) and is only meant for recycling a whole session, never between
// queries of a live session; the per-query "clear" stays with the epoch
// arrays.
//
// Arenas are single-threaded by design: one arena per QueryWorkspace, one
// workspace per thread (docs/architecture.md, "Threading rules").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pconn {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 16;

  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align) {
    assert((align & (align - 1)) == 0);
    if (!blocks_.empty()) {
      Block& b = blocks_[cur_];
      const std::size_t used = aligned(b.used, align);
      if (used + bytes <= b.size) {
        b.used = used + bytes;
        bytes_used_ += bytes;
        ++allocation_count_;
        return b.data.get() + used;
      }
      // Reset-recycled blocks after cur_ may already be large enough.
      for (std::size_t i = cur_ + 1; i < blocks_.size(); ++i) {
        if (bytes <= blocks_[i].size) {
          cur_ = i;
          blocks_[i].used = bytes;
          bytes_used_ += bytes;
          ++allocation_count_;
          return blocks_[i].data.get();
        }
      }
    }
    add_block(bytes);
    blocks_.back().used = bytes;
    cur_ = blocks_.size() - 1;
    bytes_used_ += bytes;
    ++allocation_count_;
    return blocks_.back().data.get();
  }

  /// Rewinds every block; all memory handed out so far becomes invalid.
  /// Session recycling only — live containers must be destroyed or
  /// re-assigned first.
  void reset() {
    for (Block& b : blocks_) b.used = 0;
    cur_ = 0;
    bytes_used_ = 0;
  }

  /// Bytes currently handed out (monotone within a session; regrown
  /// containers count both their old and new storage until reset).
  std::size_t bytes_used() const { return bytes_used_; }
  /// Bytes held in blocks (the arena's true footprint).
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t allocation_count() const { return allocation_count_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t aligned(std::size_t offset, std::size_t align) {
    return (offset + align - 1) & ~(align - 1);
  }

  void add_block(std::size_t min_bytes) {
    // Geometric growth keeps the block count logarithmic in the high-water
    // footprint; a single oversized request gets its own exact block.
    std::size_t size = std::max(min_bytes, next_block_bytes_);
    next_block_bytes_ = std::max(next_block_bytes_ * 2, size);
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
    bytes_reserved_ += size;
  }

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;  // block currently bumped into
  std::size_t next_block_bytes_;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t allocation_count_ = 0;
};

/// std-compatible allocator over an Arena. Unbound (nullptr arena — the
/// default) it degrades to plain new/delete, so every container stays usable
/// without a workspace; bound, deallocation is a no-op and memory comes from
/// the arena's blocks. Containers sharing one arena compare equal and can
/// swap/move storage freely.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& o) : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t) noexcept {
    if (!arena_) ::operator delete(p);
  }

  ArenaAllocator select_on_container_copy_construction() const {
    return *this;
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

/// The allocator handle engines pass around; rebound per element type.
using ScratchAlloc = ArenaAllocator<std::byte>;

}  // namespace pconn
