#ifndef FLOWERCDN_UTIL_SMALL_VECTOR_H_
#define FLOWERCDN_UTIL_SMALL_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>

#include "util/logging.h"

namespace flowercdn {

/// A vector of trivially copyable elements whose first `N` live inside the
/// object; only a longer list spills to the heap. Messages that carry a
/// list of usual length up to N (a Chord successor list) then cost no
/// allocation of their own. Elements are copied bytewise, so T must be
/// trivially copyable.
template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector copies its elements bytewise");
  static_assert(N > 0);

 public:
  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }
  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  ~SmallVector() { ::operator delete(heap_); }

  /// Replaces the contents with [first, last) (random-access iterators).
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<size_t>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    T* out = data();
    for (; first != last; ++first) *out++ = *first;
    size_ = static_cast<uint32_t>(n);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True while the elements still live inside the object.
  bool is_inline() const { return heap_ == nullptr; }

  T* data() { return heap_ != nullptr ? heap_ : InlineData(); }
  const T* data() const { return heap_ != nullptr ? heap_ : InlineData(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  void reserve(size_t n) {
    if (n <= capacity_) return;
    FLOWERCDN_CHECK(n <= UINT32_MAX);
    size_t grown = capacity_ * 2;
    if (grown < n) grown = n;
    T* bigger = static_cast<T*>(::operator new(grown * sizeof(T)));
    if (size_ > 0) std::memcpy(bigger, data(), size_ * sizeof(T));
    ::operator delete(heap_);
    heap_ = bigger;
    capacity_ = static_cast<uint32_t>(grown);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      const T copy = value;  // `value` may live in the storage about to move
      reserve(size_ + 1);
      data()[size_++] = copy;
      return;
    }
    data()[size_++] = value;
  }

  /// Grows with value-initialized elements or truncates.
  void resize(size_t n) {
    reserve(n);
    for (size_t i = size_; i < n; ++i) new (data() + i) T();
    size_ = static_cast<uint32_t>(n);
  }

 private:
  T* InlineData() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* InlineData() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  T* heap_ = nullptr;  // null while inline
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_SMALL_VECTOR_H_
