#include "net/message_pool.h"

#include <cstdio>
#include <cstdlib>

#include "net/conservation.h"
#include "net/message.h"

namespace panic {

MessagePool& MessagePool::instance() {
  // Leaked deliberately: MessagePtr deleters may run during static
  // destruction (e.g. a test fixture's simulator), after a function-local
  // static pool would already be gone.  Still reachable at exit, so leak
  // checkers stay quiet.
  static MessagePool* pool = new MessagePool();
  return *pool;
}

Message* MessagePool::acquire() {
  ++stats_.live;
  if (stats_.live > stats_.live_high_watermark) {
    stats_.live_high_watermark = stats_.live;
  }
  if (free_head_ == nullptr) {
    ++stats_.pool_misses;
    return new Message();
  }
  ++stats_.pool_hits;
  Message* msg = free_head_;
  free_head_ = msg->pool_next;
  --free_count_;
  stats_.bytes_reused += msg->data.capacity();
  msg->pool_next = nullptr;
  msg->in_pool = false;
  msg->reset_for_reuse();
  return msg;
}

void MessagePool::release(Message* msg) noexcept {
  if (msg == nullptr) return;
  if (msg->in_pool) {
    // A double-recycle means two owners freed the same message — from here
    // on the free list is corrupt and any "new" message may alias a live
    // one.  This must be fatal in every build type: an assert-only check
    // let the corruption pass silently through Release CI.
    std::fprintf(stderr,
                 "MessagePool: message %llu recycled twice (double free of "
                 "a pooled Message)\n",
                 static_cast<unsigned long long>(msg->id.value));
    std::abort();
  }
  ConservationLedger::instance().on_destroy(msg->fate);
  ++stats_.recycled;
  --stats_.live;
  msg->in_pool = true;
  msg->pool_next = free_head_;
  free_head_ = msg;
  ++free_count_;
}

void MessagePool::reserve(std::size_t target) {
  while (free_count_ < target) {
    Message* msg = new Message();
    msg->in_pool = true;
    msg->pool_next = free_head_;
    free_head_ = msg;
    ++free_count_;
    ++stats_.prewarmed;
  }
}

void MessagePool::trim() {
  while (free_head_ != nullptr) {
    Message* next = free_head_->pool_next;
    delete free_head_;
    free_head_ = next;
  }
  free_count_ = 0;
}

}  // namespace panic
