// Lazy-deletion d-ary min-heap: no position map, no decrease-key.
//
// Every improvement pushes a fresh entry, and the caller recognises and
// drops outdated pops. Two searches need exactly that: the multi-criteria
// engine keeps several live labels per node, which an addressable heap (one
// key per id) cannot hold, and the contraction's node ordering re-pushes a
// node whenever its priority changes (arity 4 there). docs/queues.md.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/arena.hpp"

namespace pconn {

template <typename Key, unsigned Arity = 4>
class LazyDAryHeap {
  static_assert(Arity >= 2, "heap arity must be at least 2");

 public:
  using Id = std::uint32_t;
  /// No per-id addressing: contains/key_of/decrease_key/erase are not
  /// provided, and callers drop stale pops themselves.
  static constexpr bool kAddressable = false;

  LazyDAryHeap() = default;
  /// Places the slot array in `alloc`'s arena (workspace-backed engines).
  explicit LazyDAryHeap(ScratchAlloc alloc)
      : slots_(ArenaAllocator<Slot>(alloc)) {}
  explicit LazyDAryHeap(std::size_t capacity) { reset_capacity(capacity); }

  /// Id-space bookkeeping only: lazy heaps hold duplicates, so no per-id
  /// state exists to size. Clears the heap (same contract as DAryHeap).
  void reset_capacity(std::size_t capacity) {
    capacity_ = capacity;
    slots_.clear();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Inserts an entry. Duplicate ids are allowed; the minimum-key entry
  /// pops first and the caller drops the rest as stale.
  void push(Id id, Key key) {
    assert(id < capacity_);
    slots_.push_back({key, id});
    sift_up(slots_.size() - 1);
  }

  Id top_id() const {
    assert(!empty());
    return slots_[0].id;
  }
  Key top_key() const {
    assert(!empty());
    return slots_[0].key;
  }

  /// Removes and returns the minimum entry.
  std::pair<Id, Key> pop() {
    assert(!empty());
    Slot min = slots_[0];
    Slot last = slots_.back();
    slots_.pop_back();
    if (!slots_.empty()) {
      slots_[0] = last;
      sift_down(0);
    }
    return {min.id, min.key};
  }

  void clear() { slots_.clear(); }

 private:
  struct Slot {
    Key key;
    Id id;
  };

  static std::size_t parent(std::size_t i) { return (i - 1) / Arity; }

  void sift_up(std::size_t i) {
    Slot moving = slots_[i];
    while (i > 0) {
      std::size_t p = parent(i);
      if (!(moving.key < slots_[p].key)) break;
      slots_[i] = slots_[p];
      i = p;
    }
    slots_[i] = moving;
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
      i = best;
    }
    slots_[i] = moving;
  }

  std::vector<Slot, ArenaAllocator<Slot>> slots_;
  std::size_t capacity_ = 0;
};

}  // namespace pconn
