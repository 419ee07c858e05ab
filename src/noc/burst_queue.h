// Fixed-capacity flit FIFO that stores contiguous flit runs of one message
// as a single descriptor (a "flit burst") instead of one object per flit.
//
// Wormhole switching keeps a message's flits contiguous on every link once
// the head has locked the path, so a router input FIFO holding 190 body
// flits of a 1500-byte frame is representable as one descriptor: first
// flit index, run length, and the per-flit ready cycles as an arithmetic
// sequence (each flit crosses a link one cycle after its predecessor).
//
// The interface is still flit-at-a-time — push/pop move exactly one
// flit, capacity is counted in flits — so routers observe bit-identical
// per-cycle behaviour (credits, stalls, allocation) while the storage cost
// and per-flit copy cost collapse from O(flits) to O(messages).  A flit is
// never an object of its own: push takes its fields, pop reads them off
// front().
//
// Merge rule (the equivalence argument, see DESIGN.md): a pushed flit
// joins the newest descriptor only when it is the same message's next flit
// (same dst/total, seq contiguous) AND its ready cycle is exactly one past
// the run's last — precisely the case where per-flit storage would hold
// {ready, ready+1, ...}.  Anything else starts a new descriptor, so the
// head flit's visibility cycle is always exact.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/ids.h"
#include "common/ring_buffer.h"
#include "common/units.h"
#include "net/message.h"

namespace panic::noc {

/// A run of `count` contiguous flits of one message, starting at flit
/// index `seq`; flit `seq + i` becomes visible at cycle `ready + i`.
struct FlitBurst {
  EngineId dst;
  std::uint32_t seq = 0;
  std::uint32_t total = 1;
  std::uint32_t count = 0;
  Cycle ready = 0;
  /// Router outputs (bit per Direction) the message's head flit may take;
  /// computed once when the head is accepted, meaningful while the head
  /// (seq == 0) is the burst's first flit.
  std::uint8_t route = 0;
  MessagePtr msg;  ///< attached once the tail flit has joined the run
};

class FlitBurstQueue {
 public:
  /// `capacity_flits` bounds the queue in flits (the credit unit).
  explicit FlitBurstQueue(std::size_t capacity_flits)
      : capacity_(capacity_flits ? capacity_flits : 1),
        bursts_(capacity_) {}

  bool full() const { return flits_ >= capacity_; }
  bool empty() const { return flits_ == 0; }
  /// Occupancy in flits (what credits are counted in).
  std::size_t size() const { return flits_; }
  std::size_t capacity() const { return capacity_; }

  /// Enqueues flit `seq` of a `total`-flit message to `dst`, visible at
  /// `ready`; `msg` is the message on its tail flit (nullptr otherwise),
  /// `route` the head flit's permitted-output mask (ignored for other
  /// flits, which never start a burst whose route is read).  Caller must
  /// check !full().
  void push(EngineId dst, std::uint32_t seq, std::uint32_t total,
            Cycle ready, std::uint8_t route, MessagePtr msg) {
    assert(!full());
    ++flits_;
    if (!bursts_.empty()) {
      FlitBurst& b = bursts_.back();
      if (b.dst == dst && b.total == total && b.seq + b.count == seq &&
          b.ready + b.count == ready) {
        ++b.count;
        if (msg != nullptr) b.msg = std::move(msg);
        return;
      }
    }
    FlitBurst b;
    b.dst = dst;
    b.seq = seq;
    b.total = total;
    b.count = 1;
    b.ready = ready;
    b.route = route;
    b.msg = std::move(msg);
    bursts_.push(std::move(b));
  }

  /// The burst whose first flit is the queue head.  Caller must check
  /// !empty().
  const FlitBurst& front() const { return bursts_.front(); }
  /// The burst holding the newest flit.  Caller must check !empty().
  const FlitBurst& back() const { return bursts_.back(); }

  /// Dequeues the oldest flit (front().seq); returns the message if it
  /// was the tail flit, else nullptr.  Caller must check !empty().
  MessagePtr pop() {
    assert(flits_ != 0);
    FlitBurst& b = bursts_.front();
    MessagePtr msg;
    if (b.seq + 1 == b.total) msg = std::move(b.msg);
    ++b.seq;
    --b.count;
    ++b.ready;
    --flits_;
    if (b.count == 0) bursts_.pop();
    return msg;
  }

  /// Replaces the contents with one run of `count` flits of one message,
  /// starting at flit `seq`, the first visible at `ready` (express-worm
  /// install and materialize, see noc/mesh.h).  The run keeps the old
  /// newest burst's dst, total and message, so it only re-times and
  /// re-numbers flits the queue holds for the same message.
  void reset_run(std::uint32_t seq, std::uint32_t count, Cycle ready) {
    assert(flits_ != 0 && count != 0 && count <= capacity_);
    FlitBurst run = std::move(bursts_.back());
    bursts_.clear();
    run.seq = seq;
    run.count = count;
    run.ready = ready;
    run.route = 0;
    flits_ = count;
    bursts_.push(std::move(run));
  }

  /// Attaches the message to the newest burst, whose last flit is the
  /// message's tail (express hand-over of a tail that moved virtually).
  void attach_tail(MessagePtr msg) {
    assert(flits_ != 0);
    FlitBurst& b = bursts_.back();
    assert(b.seq + b.count == b.total && b.msg == nullptr);
    b.msg = std::move(msg);
  }

 private:
  std::size_t capacity_;
  RingBuffer<FlitBurst> bursts_;
  std::size_t flits_ = 0;
};

}  // namespace panic::noc
