// A FIFO queue over one vector that reuses its capacity.
//
// Per-device queues (a link's transfers, a disk's accesses) are empty most
// of the time, and many devices never use theirs at all.  An empty
// std::deque still allocates its map and first block (~600 bytes in
// libstdc++), and std::list allocates per element.  Fifo allocates nothing
// until the first push, and once it has grown to its peak depth it
// allocates nothing more: popping advances a head index, the vector is
// cleared (keeping its capacity) whenever the queue drains, and a push that
// finds at least half the vector consumed first slides the live elements
// down, so the storage stays within twice the peak depth.

#ifndef SRC_UTIL_FIFO_H_
#define SRC_UTIL_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace odutil {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  // The `i`-th oldest element; front() is the oldest.  Requires
  // i < size().  A push may move every element, so references last only
  // until the next push_back.
  T& operator[](size_t i) {
    OD_CHECK(i < size());
    return items_[head_ + i];
  }
  const T& operator[](size_t i) const {
    OD_CHECK(i < size());
    return items_[head_ + i];
  }
  T& front() {
    OD_CHECK(!empty());
    return items_[head_];
  }
  const T& front() const {
    OD_CHECK(!empty());
    return items_[head_];
  }

  // Drops every element, keeping the capacity.
  void clear() {
    items_.clear();
    head_ = 0;
  }

  void push_back(T item) {
    if (head_ > 0 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(item));
  }

  // Removes and returns the oldest element.  Requires !empty().
  T pop_front() {
    OD_CHECK(!empty());
    T item = std::move(items_[head_]);
    ++head_;
    if (empty()) {
      clear();
    }
    return item;
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;  // Index of the oldest element.
};

}  // namespace odutil

#endif  // SRC_UTIL_FIFO_H_
