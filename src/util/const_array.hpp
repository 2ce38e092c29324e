// ConstArray — the one read-only array type of the finalized data
// structures (Timetable, TtfPool, OverlayGraph): a pointer, a length and a
// shared owner that keeps the storage alive.
//
// The storage is either a builder's finished std::vector, handed over once,
// or a section of a mapped snapshot file (timetable/snapshot.hpp), whose
// owner unmaps the file when the last array viewing it goes away. Readers
// never see the difference, so no engine carries a mapped-versus-owned
// code path. Copies and prefix views share the storage; nothing is ever
// written through it.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace pconn {

template <typename T>
class ConstArray {
 public:
  ConstArray() = default;

  /// Takes ownership of a finished vector (the builders' one hand-over).
  explicit ConstArray(std::vector<T>&& v) {
    if (v.empty()) return;
    auto owned = std::make_shared<const std::vector<T>>(std::move(v));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }

  /// Views `size` elements at `data`, kept alive by `owner` (a file
  /// mapping, or nullptr for storage the caller keeps alive itself).
  ConstArray(const T* data, std::size_t size, std::shared_ptr<const void> owner)
      : data_(data), size_(size), owner_(std::move(owner)) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<const T> span() const { return {data_, size_}; }
  /// Elements [first, last).
  std::span<const T> slice(std::size_t first, std::size_t last) const {
    assert(first <= last && last <= size_);
    return {data_ + first, last - first};
  }
  std::span<const std::byte> bytes() const { return std::as_bytes(span()); }
  /// The first n elements as an array of their own, sharing this one's
  /// storage and keeping its owner alive.
  ConstArray prefix(std::size_t n) const {
    assert(n <= size_);
    return ConstArray(data_, n, owner_);
  }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<const void> owner_;
};

}  // namespace pconn
