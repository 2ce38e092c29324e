// Epoch-versioned flat array: O(1) logical clear.
//
// The profile-search workspaces are reused across the thousands of queries a
// bench run issues; physically zeroing |V| x |conn(S)| label matrices per
// query would dominate the measurement. An EpochArray keeps a per-slot
// version stamp and treats stale slots as holding the default value.
//
// Storage is allocator-aware: constructed from a workspace's ScratchAlloc,
// both the value and the stamp array live in the session arena
// (util/arena.hpp); default-constructed arrays use the heap as before.
#pragma once

#include <cstdint>
#include <vector>

#include "util/arena.hpp"
#include "util/prefetch.hpp"

namespace pconn {

template <typename T>
class EpochArray {
 public:
  EpochArray() = default;
  explicit EpochArray(ScratchAlloc alloc)
      : values_(ArenaAllocator<T>(alloc)),
        epochs_(ArenaAllocator<std::uint32_t>(alloc)) {}
  EpochArray(std::size_t n, T def) { assign(n, def); }

  void assign(std::size_t n, T def) {
    default_ = def;
    values_.assign(n, def);
    epochs_.assign(n, 0);
    epoch_ = 1;
  }

  /// Grows to at least n slots (keeping the default) and clears; cheap when
  /// already large enough. Used by per-query workspaces whose width varies.
  void ensure_and_clear(std::size_t n, T def) {
    if (n > values_.size() || default_ != def) {
      assign(n, def);
    } else {
      clear();
    }
  }

  std::size_t size() const { return values_.size(); }

  /// Logically resets every slot to the default value.
  void clear() {
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: physically reset once per 2^32 clears
      std::fill(epochs_.begin(), epochs_.end(), 0);
      epoch_ = 1;
    }
  }

  T get(std::size_t i) const {
    return epochs_[i] == epoch_ ? values_[i] : default_;
  }

  void set(std::size_t i, T v) {
    values_[i] = v;
    epochs_[i] = epoch_;
  }

  bool touched(std::size_t i) const { return epochs_[i] == epoch_; }

  std::uint32_t epoch() const { return epoch_; }

  /// Bulk views for in-place sweeps (the overlay SPCS down-sweep extends a
  /// thread's label matrix row by row): slot i logically holds
  /// values_data()[i] iff epochs_data()[i] == epoch(), else the default.
  /// Writing values_data()[i] must be paired with stamping
  /// epochs_data()[i] = epoch(), exactly what set() does — these views only
  /// exist so a row writer can do it without per-slot bounds/epoch
  /// re-checks.
  T* values_data() { return values_.data(); }
  std::uint32_t* epochs_data() { return epochs_.data(); }

  /// Prefetch hint for slot i (relax-loop lookahead): the stamp word
  /// decides touched()/get(), the value line follows on set().
  void prefetch(std::size_t i) const {
    pconn::prefetch(epochs_.data() + i);
    pconn::prefetch(values_.data() + i);
  }

 private:
  std::vector<T, ArenaAllocator<T>> values_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> epochs_;
  std::uint32_t epoch_ = 1;
  T default_{};
};

}  // namespace pconn
