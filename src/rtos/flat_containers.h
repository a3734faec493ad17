// An inline small vector, and the sorted set and map built on it, for
// hot-path collections.
//
// SmallVec keeps its first N elements inside the object. Past N every
// element moves to a heap vector (the spill), which keeps its capacity
// across erase() and clear(). So building, moving and dropping a short
// list touch no heap, and neither does a fresh object's first growth.
// It is the list built fresh per event and handed along by value
// (ResourceEvent::grants), or built once per op when a program is set
// up (op::Request/op::Release).
//
// FlatSet and FlatMap keep task bookkeeping (held/waited resources,
// held locks, allocation slots) sorted in a SmallVec of four. Each holds
// a handful of entries but is touched on every kernel service, and
// std::set/std::map pay a node allocation plus pointer-chasing per
// operation. The sorted vector iterates in key order like std::set and
// std::map, so every report and trace that walks these stays
// byte-identical; insert/erase are a move over a few cache-resident
// entries. The four inline entries mean a fresh run's tasks set
// themselves up with no allocation (a short sweep run builds every one
// of them from empty), and a spilled set keeps its capacity, so steady
// state runs allocation-free either way.
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

/// Sequence whose first N elements are stored inline. Once it outgrows N
/// every element lives in a heap vector (the spill) until clear(), even
/// if erase() shrinks it back under N: `spilled_`, not the size, says
/// which storage holds the elements. The spill keeps its capacity, so a
/// list that grows past N again reuses it. Drop-in for the
/// std::vector<T> subset the kernel uses: construction from a range,
/// emplace_back, insert and erase at a position, clear, size, empty,
/// operator[] and iteration in order.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_destructible_v<T>,
                "clear() and erase() drop elements without destroying them");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  /// The elements of [first, last), in order: inline when they fit,
  /// otherwise all in one spill allocation.
  template <std::forward_iterator It>
  SmallVec(It first, It last) {
    assign(first, last);
  }
  /// A copy holds its elements inline whenever they fit, whichever
  /// storage the source uses.
  SmallVec(const SmallVec& o) { assign(o.begin(), o.end()); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  SmallVec(SmallVec&& o) noexcept
      : inline_(o.inline_),
        size_(std::exchange(o.size_, 0)),
        spilled_(std::exchange(o.spilled_, false)),
        spill_(std::move(o.spill_)) {}
  SmallVec& operator=(SmallVec&& o) noexcept {
    inline_ = o.inline_;
    size_ = std::exchange(o.size_, 0);
    spilled_ = std::exchange(o.spilled_, false);
    spill_ = std::move(o.spill_);
    return *this;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (!spilled_ && size_ < N)
      return inline_[size_++] = T(std::forward<Args>(args)...);
    spill();
    ++size_;
    return spill_.emplace_back(std::forward<Args>(args)...);
  }

  /// Insert `v` before `pos`; returns an iterator to it.
  iterator insert(const_iterator pos, T v) {
    const auto i = static_cast<std::size_t>(pos - begin());
    if (!spilled_ && size_ < N) {
      std::copy_backward(inline_.begin() + i, inline_.begin() + size_,
                         inline_.begin() + size_ + 1);
      inline_[i] = v;
    } else {
      spill();
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(i), v);
    }
    ++size_;
    return data() + i;
  }

  /// Erase the element at `pos`; returns an iterator to the one after.
  iterator erase(const_iterator pos) {
    const auto i = static_cast<std::size_t>(pos - begin());
    if (spilled_)
      spill_.erase(spill_.begin() + static_cast<std::ptrdiff_t>(i));
    else
      std::copy(inline_.begin() + i + 1, inline_.begin() + size_,
                inline_.begin() + i);
    --size_;
    return data() + i;
  }

  void clear() {
    size_ = 0;
    spilled_ = false;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] iterator begin() { return data(); }
  [[nodiscard]] iterator end() { return data() + size_; }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size_; }

 private:
  [[nodiscard]] T* data() { return spilled_ ? spill_.data() : inline_.data(); }
  [[nodiscard]] const T* data() const {
    return spilled_ ? spill_.data() : inline_.data();
  }

  /// Move the inline elements to the spill (no allocation once it has
  /// the room). A no-op once spilled.
  void spill() {
    if (spilled_) return;
    spill_.assign(inline_.begin(), inline_.begin() + size_);
    spilled_ = true;
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    size_ = static_cast<std::size_t>(std::distance(first, last));
    spilled_ = size_ > N;
    if (spilled_)
      spill_.assign(first, last);
    else
      std::copy(first, last, inline_.begin());
  }

  std::array<T, N> inline_{};
  std::size_t size_ = 0;
  bool spilled_ = false;  ///< the elements are spill_'s, not inline_'s
  std::vector<T> spill_;  ///< every element while spilled_
};

/// Entries a FlatSet or FlatMap keeps inline before it spills.
inline constexpr std::size_t kFlatInline = 4;

/// Ordered unique-element set over a SmallVec. Drop-in for the
/// std::set<T> subset the kernel uses (insert/erase/count/iterate).
template <typename T>
class FlatSet {
 public:
  using const_iterator = typename SmallVec<T, kFlatInline>::const_iterator;

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
  SmallVec<T, kFlatInline> v_;  ///< sorted, unique
};

/// Ordered key/value map over a SmallVec of pairs. Drop-in for the
/// std::map<K, V> subset the kernel uses. Iteration order is key order,
/// exactly like std::map, so any consumer that walks entries observes
/// the same sequence.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename SmallVec<value_type, kFlatInline>::iterator;
  using const_iterator =
      typename SmallVec<value_type, kFlatInline>::const_iterator;

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

  SmallVec<value_type, kFlatInline> v_;  ///< sorted by key, unique keys
};

}  // namespace delta::rtos
