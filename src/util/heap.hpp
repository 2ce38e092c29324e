// Addressable d-ary min-heap with decrease-key.
//
// The paper's query algorithms are Dijkstra variants run with a binary heap
// ("As priority queue we use a binary heap", Section 5). Heap items are
// identified by a dense external id in [0, capacity); the heap keeps a
// position map so decrease_key / contains are O(1) lookups. The arity is a
// template parameter; the engines ship arity 2 (queue_policy.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/arena.hpp"

namespace pconn {

/// What a push_or_decrease call did to the queue. The distinct values let
/// the search loops keep exact pushed/decreased counters from one call.
enum class QueuePush { kUnchanged = 0, kPushed, kDecreased };

template <typename Key, unsigned Arity = 2>
class DAryHeap {
  static_assert(Arity >= 2, "heap arity must be at least 2");

 public:
  using Id = std::uint32_t;
  /// Queue-policy traits (see docs/queues.md): addressable queues support
  /// contains/key_of/decrease_key/erase and never produce stale pops.
  static constexpr bool kAddressable = true;
  static constexpr bool kMonotone = false;
  static constexpr std::uint32_t kInvalidPos =
      std::numeric_limits<std::uint32_t>::max();

  DAryHeap() = default;
  /// Places the position map and the slot array in `alloc`'s arena
  /// (workspace-backed engines); unbound allocs behave like the default.
  explicit DAryHeap(ScratchAlloc alloc)
      : pos_(ArenaAllocator<std::uint32_t>(alloc)),
        slots_(ArenaAllocator<Slot>(alloc)) {}
  explicit DAryHeap(std::size_t capacity) { reset_capacity(capacity); }

  /// Grows the id space to exactly `capacity` (no doubling: an arena-backed
  /// map must not outgrow what its owner sized it for; shrink requests keep
  /// the allocation). Clears the heap.
  void reset_capacity(std::size_t capacity) {
    clear();
    if (capacity > pos_.size()) pos_.assign(capacity, kInvalidPos);
  }

  std::size_t capacity() const { return pos_.size(); }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  bool contains(Id id) const {
    assert(id < pos_.size());
    return pos_[id] != kInvalidPos;
  }

  Key key_of(Id id) const {
    assert(contains(id));
    return slots_[pos_[id]].key;
  }

  /// Inserts a new id. Precondition: !contains(id).
  void push(Id id, Key key) {
    assert(id < pos_.size() && !contains(id));
    slots_.push_back({key, id});
    pos_[id] = static_cast<std::uint32_t>(slots_.size() - 1);
    sift_up(slots_.size() - 1);
  }

  /// Lowers the key of a contained id. Precondition: key <= key_of(id).
  void decrease_key(Id id, Key key) {
    assert(contains(id));
    std::uint32_t p = pos_[id];
    assert(!(slots_[p].key < key));
    slots_[p].key = key;
    sift_up(p);
  }

  /// push if absent, decrease_key if present and the new key is smaller.
  /// One position-map lookup instead of the contains/key_of/decrease_key
  /// triple; reports what happened so callers can keep exact counters.
  QueuePush push_or_decrease(Id id, Key key) {
    assert(id < pos_.size());
    const std::uint32_t p = pos_[id];
    if (p == kInvalidPos) {
      push(id, key);
      return QueuePush::kPushed;
    }
    if (key < slots_[p].key) {
      slots_[p].key = key;
      sift_up(p);
      return QueuePush::kDecreased;
    }
    return QueuePush::kUnchanged;
  }

  Id top_id() const {
    assert(!empty());
    return slots_[0].id;
  }
  Key top_key() const {
    assert(!empty());
    return slots_[0].key;
  }

  /// Removes and returns the minimum element.
  std::pair<Id, Key> pop() {
    assert(!empty());
    Slot min = slots_[0];
    remove_at(0);
    return {min.id, min.key};
  }

  /// Removes an arbitrary contained id (used by pruning rules that delete
  /// queue entries for an abandoned connection).
  void erase(Id id) {
    assert(contains(id));
    remove_at(pos_[id]);
  }

  /// Removes all elements; keeps the id space.
  void clear() {
    for (const Slot& s : slots_) pos_[s.id] = kInvalidPos;
    slots_.clear();
  }

 private:
  struct Slot {
    Key key;
    Id id;
  };

  void remove_at(std::uint32_t hole) {
    pos_[slots_[hole].id] = kInvalidPos;
    Slot last = slots_.back();
    slots_.pop_back();
    if (hole == slots_.size()) return;
    slots_[hole] = last;
    pos_[last.id] = hole;
    if (hole > 0 && slots_[hole].key < slots_[parent(hole)].key) {
      sift_up(hole);
    } else {
      sift_down(hole);
    }
  }

  static std::uint32_t parent(std::uint32_t i) { return (i - 1) / Arity; }

  void sift_up(std::size_t i) {
    Slot moving = slots_[i];
    while (i > 0) {
      std::uint32_t p = parent(static_cast<std::uint32_t>(i));
      if (!(moving.key < slots_[p].key)) break;
      slots_[i] = slots_[p];
      pos_[slots_[i].id] = static_cast<std::uint32_t>(i);
      i = p;
    }
    slots_[i] = moving;
    pos_[moving.id] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i) {
    Slot moving = slots_[i];
    const std::size_t n = slots_.size();
    while (true) {
      std::size_t first = i * Arity + 1;
      if (first >= n) break;
      std::size_t last = std::min(first + Arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (slots_[c].key < slots_[best].key) best = c;
      }
      if (!(slots_[best].key < moving.key)) break;
      slots_[i] = slots_[best];
      pos_[slots_[i].id] = static_cast<std::uint32_t>(i);
      i = best;
    }
    slots_[i] = moving;
    pos_[moving.id] = static_cast<std::uint32_t>(i);
  }

  // id -> slot index, kInvalidPos if absent
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> pos_;
  std::vector<Slot, ArenaAllocator<Slot>> slots_;
};

template <typename Key>
using BinaryHeap = DAryHeap<Key, 2>;

}  // namespace pconn
