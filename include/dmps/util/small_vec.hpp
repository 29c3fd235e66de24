#pragma once
// SmallVec: a vector with inline storage for small element counts.
//
// The control-plane payloads this library moves (clock-sync probes, fproto
// floor signalling) are a handful of int64 lanes each, and a floor decision
// names a handful of holders, yet every delivery and every decision used to
// heap-allocate a std::vector. SmallVec keeps up to N elements in the
// object itself and only spills to the heap beyond that, so the common
// small path allocates nothing.
//
// The inline storage is raw: an empty SmallVec constructs no element, so a
// result type carrying several of them costs a few stores to build. Any
// element type works. Trivially copyable ones (payload lanes, holders, slot
// indexes) move and copy as memcpy-class operations; others (a Promotion
// carrying its own decision) are moved element by element. Moving a spilled
// SmallVec steals its heap block; moving an inline one moves its elements
// and leaves the source empty.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

namespace dmps::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "inline capacity must be non-zero");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    std::uninitialized_copy(init.begin(), init.end(), data());
    size_ = static_cast<std::uint32_t>(init.size());
  }

  SmallVec(const SmallVec& other) {
    reserve(other.size_);
    std::uninitialized_copy(other.begin(), other.end(), data());
    size_ = other.size_;
  }

  SmallVec(SmallVec&& other) noexcept { take(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    std::uninitialized_copy(other.begin(), other.end(), data());
    size_ = other.size_;
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this == &other) return *this;
    clear();
    release_heap();
    take(other);
    return *this;
  }

  ~SmallVec() {
    clear();
    release_heap();
  }

  /// By value, so pushing an element of this very SmallVec stays valid
  /// across the growth it may trigger.
  void push_back(T value) {
    if (size_ == cap_) reserve(std::size_t{cap_} * 2);
    ::new (static_cast<void*>(data() + size_)) T(std::move(value));
    ++size_;
  }

  /// Destroy every element; the storage (inline or heap) is kept.
  void clear() {
    std::destroy(begin(), end());
    size_ = 0;
  }

  /// Drop the last element (undefined on an empty SmallVec, like vector).
  void pop_back() {
    --size_;
    std::destroy_at(data() + size_);
  }

  void reserve(std::size_t need) {
    if (need <= cap_) return;
    std::size_t cap = cap_;
    while (cap < need) cap *= 2;
    T* heap = std::allocator<T>().allocate(cap);
    std::uninitialized_move(begin(), end(), heap);
    std::destroy(begin(), end());
    release_heap();
    heap_ = heap;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  /// True while the payload still lives in the object itself (no heap).
  bool inline_storage() const { return heap_ == nullptr; }

  T* data() { return heap_ != nullptr ? heap_ : inline_data(); }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_data(); }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }
  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }

  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVec& a, const SmallVec& b) {
    return !(a == b);
  }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_); }
  const T* inline_data() const { return reinterpret_cast<const T*>(inline_); }

  /// Take `other`'s elements into this empty, inline SmallVec.
  void take(SmallVec& other) {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.cap_ = N;
      other.size_ = 0;
      return;
    }
    std::uninitialized_move(other.begin(), other.end(), inline_data());
    size_ = other.size_;
    other.clear();
  }

  void release_heap() {
    if (heap_ == nullptr) return;
    std::allocator<T>().deallocate(heap_, cap_);
    heap_ = nullptr;
    cap_ = N;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace dmps::util
