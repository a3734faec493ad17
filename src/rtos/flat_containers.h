// Sorted-vector set/map and an inline small vector for hot-path
// collections.
//
// Task bookkeeping (held/waited resources, held locks, allocation slots)
// holds a handful of entries but is touched on every kernel service, and
// std::set/std::map pay a node allocation plus pointer-chasing per
// operation. A sorted vector keeps the same ordered iteration (so every
// report and trace that walks these stays byte-identical) while insert/
// erase are a memmove over a few cache-resident elements, and — key for
// the periodic workloads — capacity is retained across clear()/erase()
// cycles, so steady state runs allocation-free.
//
// SmallVec covers the other hot-path shape: a short list built fresh per
// event and handed along by value (ResourceEvent::grants), or built once
// per op when a program is set up (op::Request/op::Release). Its first N
// elements live inside the object, so building, moving and dropping it
// touch no heap unless the list outgrows N.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace delta::rtos {

/// Ordered unique-element set over a contiguous vector. Drop-in for the
/// std::set<T> subset the kernel uses (insert/erase/count/iterate).
template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  bool insert(const T& v) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), v);
    if (it != v_.end() && *it == v) return false;
    v_.insert(it, v);
    return true;
  }

  std::size_t erase(const T& v) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), v);
    if (it == v_.end() || *it != v) return 0;
    v_.erase(it);
    return 1;
  }

  [[nodiscard]] std::size_t count(const T& v) const {
    return contains(v) ? 1 : 0;
  }
  [[nodiscard]] bool contains(const T& v) const {
    return std::binary_search(v_.begin(), v_.end(), v);
  }

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  [[nodiscard]] const_iterator begin() const { return v_.begin(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }

 private:
  std::vector<T> v_;  ///< sorted, unique
};

/// Ordered key/value map over a contiguous vector of pairs. Drop-in for
/// the std::map<K, V> subset the kernel uses. Iteration order is key
/// order, exactly like std::map, so any consumer that walks entries
/// observes the same sequence.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  V& operator[](const K& k) {
    auto it = lower(k);
    if (it == v_.end() || it->first != k) it = v_.insert(it, {k, V{}});
    return it->second;
  }

  [[nodiscard]] iterator find(const K& k) {
    const auto it = lower(k);
    return it != v_.end() && it->first == k ? it : v_.end();
  }
  [[nodiscard]] const_iterator find(const K& k) const {
    const auto it = lower(k);
    return it != v_.end() && it->first == k ? it : v_.end();
  }

  [[nodiscard]] const V& at(const K& k) const {
    const auto it = find(k);
    if (it == v_.end()) throw std::out_of_range("FlatMap::at: missing key");
    return it->second;
  }

  void erase(iterator it) { v_.erase(it); }
  std::size_t erase(const K& k) {
    const auto it = find(k);
    if (it == v_.end()) return 0;
    v_.erase(it);
    return 1;
  }

  [[nodiscard]] std::size_t count(const K& k) const {
    return find(k) == v_.end() ? 0 : 1;
  }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  [[nodiscard]] iterator begin() { return v_.begin(); }
  [[nodiscard]] iterator end() { return v_.end(); }
  [[nodiscard]] const_iterator begin() const { return v_.begin(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }

 private:
  [[nodiscard]] iterator lower(const K& k) {
    return std::lower_bound(
        v_.begin(), v_.end(), k,
        [](const value_type& a, const K& b) { return a.first < b; });
  }
  [[nodiscard]] const_iterator lower(const K& k) const {
    return std::lower_bound(
        v_.begin(), v_.end(), k,
        [](const value_type& a, const K& b) { return a.first < b; });
  }

  std::vector<value_type> v_;  ///< sorted by key, unique keys
};

/// Sequence whose first N elements are stored inline. Past N every
/// element moves to a heap vector (the spill), which keeps its capacity
/// across clear(). Drop-in for the std::vector<T> subset
/// ResourceEvent::grants and the op resource lists use: construction
/// from a range, emplace_back, clear, size, empty, operator[] and
/// iteration in insertion order.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_destructible_v<T>,
                "clear() drops inline elements without destroying them");

 public:
  using value_type = T;
  using const_iterator = const T*;

  SmallVec() = default;
  /// The elements of [first, last), in order: inline when they fit,
  /// otherwise all in one spill allocation.
  template <std::forward_iterator It>
  SmallVec(It first, It last)
      : size_(static_cast<std::size_t>(std::distance(first, last))) {
    if (size_ > N)
      spill_.assign(first, last);
    else
      std::copy(first, last, inline_.begin());
  }
  SmallVec(const SmallVec&) = default;
  SmallVec& operator=(const SmallVec&) = default;
  SmallVec(SmallVec&& o) noexcept
      : inline_(o.inline_),
        size_(std::exchange(o.size_, 0)),
        spill_(std::move(o.spill_)) {}
  SmallVec& operator=(SmallVec&& o) noexcept {
    inline_ = o.inline_;
    size_ = std::exchange(o.size_, 0);
    spill_ = std::move(o.spill_);
    return *this;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ < N) return inline_[size_++] = T(std::forward<Args>(args)...);
    if (size_ == N) spill_.assign(inline_.begin(), inline_.end());
    ++size_;
    return spill_.emplace_back(std::forward<Args>(args)...);
  }

  void clear() {
    size_ = 0;
    spill_.clear();
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size_; }

 private:
  [[nodiscard]] const T* data() const {
    return size_ > N ? spill_.data() : inline_.data();
  }

  std::array<T, N> inline_{};
  std::size_t size_ = 0;
  std::vector<T> spill_;  ///< every element once size_ > N
};

}  // namespace delta::rtos
