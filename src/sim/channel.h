// Bounded, closeable MPMC channel for sim tasks — the backbone of the
// producer/consumer structures in the paper's shuffle engines
// (DataRequestQueue, DataToMergeQueue, DataToReduceQueue).
//
// recv() yields std::optional<T>: nullopt means the channel was closed
// and fully drained, the idiomatic daemon-shutdown signal.
//
// An idle channel holds no heap: the buffer is a sim::Fifo and parked
// senders and receivers are linked through their awaiters (sim/fifo.h).
#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/engine.h"
#include "sim/fifo.h"

namespace hmr::sim {

template <typename T>
class Channel {
  struct SendAwaiter;
  struct RecvAwaiter;

 public:
  Channel(Engine& engine, size_t capacity)
      : engine_(engine), capacity_(capacity) {
    HMR_CHECK_MSG(capacity_ > 0, "channel capacity must be positive");
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }
  bool closed() const { return closed_; }
  bool empty() const { return buffer_.empty(); }

  // Awaitable send. Sending on a closed channel is a programming error.
  SendAwaiter send(T value) { return SendAwaiter(*this, std::move(value)); }

  // Awaitable receive; nullopt once closed and drained.
  RecvAwaiter recv() { return RecvAwaiter(*this); }

  // Non-suspending send: delivers if a receiver is parked or buffer space
  // exists; returns false when full or closed (callers drop or retry).
  bool try_send(T value) {
    if (closed_) return false;
    if (!senders_.empty() || buffer_.size() >= capacity_) {
      if (receivers_.empty()) return false;
    }
    push(std::move(value));
    return true;
  }

  // Non-suspending receive: a buffered item if any, else nullopt (does not
  // distinguish empty from closed — callers poll).
  std::optional<T> try_recv() {
    if (buffer_.empty()) return std::nullopt;
    std::optional<T> value = buffer_.pop_front();
    admit_parked_sender();
    return value;
  }

  // Closes the channel: parked receivers beyond the buffered items get
  // nullopt; future recv() drains the buffer then yields nullopt.
  void close() {
    if (closed_) return;
    closed_ = true;
    HMR_CHECK_MSG(senders_.empty(), "close with parked senders");
    while (!receivers_.empty()) {
      auto& receiver = receivers_.pop_front<RecvAwaiter>();
      if (!buffer_.empty()) receiver.value = buffer_.pop_front();
      engine_.schedule_now(receiver.handle);
    }
  }

 private:
  // Parked senders are drained by recv()/close(), which move the value
  // out of the awaiter before rescheduling it.
  struct SendAwaiter : Waiter {
    SendAwaiter(Channel& c, T v) : channel(c), value(std::move(v)) {}
    Channel& channel;
    T value;
    bool parked = false;
    bool await_ready() {
      HMR_CHECK_MSG(!channel.closed_, "send on closed channel");
      return channel.senders_.empty() &&
             channel.buffer_.size() < channel.capacity_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      parked = true;
      channel.senders_.push_back(*this, h);
    }
    void await_resume() {
      if (!parked) channel.push(std::move(value));
    }
  };

  struct RecvAwaiter : Waiter {
    explicit RecvAwaiter(Channel& c) : channel(c) {}
    Channel& channel;
    std::optional<T> value;
    bool parked = false;
    bool await_ready() { return !channel.buffer_.empty() || channel.closed_; }
    void await_suspend(std::coroutine_handle<> h) {
      parked = true;
      channel.receivers_.push_back(*this, h);
    }
    std::optional<T> await_resume() {
      if (!parked && !channel.buffer_.empty()) {
        value = channel.buffer_.pop_front();
        channel.admit_parked_sender();
      }
      // else: delivered while parked, or closed and drained -> nullopt
      return std::move(value);
    }
  };

  void push(T value) {
    if (!receivers_.empty()) {
      auto& receiver = receivers_.pop_front<RecvAwaiter>();
      receiver.value = std::move(value);
      engine_.schedule_now(receiver.handle);
      return;
    }
    buffer_.push_back(std::move(value));
  }

  // After a buffered item is consumed, promote the oldest parked sender.
  void admit_parked_sender() {
    if (senders_.empty() || buffer_.size() >= capacity_) return;
    auto& sender = senders_.pop_front<SendAwaiter>();
    buffer_.push_back(std::move(sender.value));
    engine_.schedule_now(sender.handle);
  }

  Engine& engine_;
  size_t capacity_;
  bool closed_ = false;
  Fifo<T> buffer_;
  WaitList senders_;
  WaitList receivers_;
};

}  // namespace hmr::sim
