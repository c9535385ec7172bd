// The two FIFOs behind the sim primitives (sim/channel.h, sim/sync.h) and
// the verbs receive queue. Both hold no heap at rest, which is what lets
// the simulator keep one stream per (map, reduce) pair alive at once:
//
//  * Fifo<T>  — a value ring that allocates on the first push and frees
//    its storage again when it drains;
//  * WaitList — an intrusive FIFO of parked coroutines, linked through a
//    Waiter embedded in each awaiter. An awaiter lives in its suspended
//    coroutine's frame until it is resumed, so parking allocates nothing.
//
// Neither is thread-safe; both are touched only on the engine thread.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"

namespace hmr::sim {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    while (size_ > 0) pop_front();
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::move(value));
    ++size_;
  }

  // Removes and returns the oldest item; the last one out frees the ring.
  T pop_front() {
    T value = std::move(slots_[head_]);
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    if (--size_ == 0) {
      std::allocator<T>().deallocate(slots_, capacity_);
      slots_ = nullptr;
      head_ = 0;
      capacity_ = 0;
    }
    return value;
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 4;

  // Doubles the ring (a power of two, so indices wrap with a mask) and
  // unrolls the items into the front of the new one.
  void grow() {
    HMR_CHECK_MSG(capacity_ <= UINT32_MAX / 2, "sim::Fifo overflow");
    const std::uint32_t capacity =
        capacity_ == 0 ? kFirstCapacity : capacity_ * 2;
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T* from = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(slots + i, std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    head_ = 0;
    capacity_ = capacity;
  }

  T* slots_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

class WaitList;

// The link a parked awaiter carries. Awaiters that park derive from it.
// Whichever of waiter and list dies first detaches the other: a frame
// torn down while parked (engine shutdown) unlinks its waiter, and a list
// destroyed with waiters still on it orphans them.
class Waiter {
 public:
  Waiter() = default;
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  ~Waiter();

  std::coroutine_handle<> handle;

 private:
  friend class WaitList;
  Waiter* prev_ = nullptr;
  Waiter* next_ = nullptr;
  WaitList* list_ = nullptr;
};

class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    for (Waiter* w = head_; w != nullptr;) {
      Waiter* next = w->next_;
      w->prev_ = w->next_ = nullptr;
      w->list_ = nullptr;
      w = next;
    }
  }

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

  // The oldest parked waiter, as the awaiter type that embeds it.
  template <typename Awaiter>
  Awaiter& front() const {
    return static_cast<Awaiter&>(*head_);
  }

  void push_back(Waiter& w, std::coroutine_handle<> h) {
    w.handle = h;
    w.list_ = this;
    w.prev_ = tail_;
    (tail_ != nullptr ? tail_->next_ : head_) = &w;
    tail_ = &w;
    ++size_;
  }

  template <typename Awaiter>
  Awaiter& pop_front() {
    Waiter& w = *head_;
    erase(w);
    return static_cast<Awaiter&>(w);
  }

  void erase(Waiter& w) {
    (w.prev_ != nullptr ? w.prev_->next_ : head_) = w.next_;
    (w.next_ != nullptr ? w.next_->prev_ : tail_) = w.prev_;
    w.prev_ = w.next_ = nullptr;
    w.list_ = nullptr;
    --size_;
  }

 private:
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::size_t size_ = 0;
};

inline Waiter::~Waiter() {
  if (list_ != nullptr) list_->erase(*this);
}

}  // namespace hmr::sim
