#include "noc/network_interface.h"

#include <cassert>

#include "noc/mesh.h"
#include "telemetry/telemetry.h"

namespace panic::noc {

NetworkInterface::NetworkInterface(EngineId tile, std::uint32_t channel_bits,
                                   Router* router, std::size_t inject_depth)
    : Component("ni(" + std::to_string(tile.value) + ")"),
      tile_(tile),
      channel_bits_(channel_bits),
      router_(router),
      inject_depth_(inject_depth),
      pending_(inject_depth ? inject_depth : 1) {
  assert(router_ != nullptr);
  assert(channel_bits_ > 0);
}

void NetworkInterface::inject(MessagePtr msg, EngineId dst, Cycle now) {
  assert(can_inject());
  assert(msg != nullptr);
  PendingMessage p;
  p.total_flits = flits_for(msg->wire_size(), channel_bits_);
  p.msg = std::move(msg);
  p.dst = dst;
  pending_.push(std::move(p));
  router_->mesh().mark_ni_busy(tile_.value, now);
}

MessagePtr NetworkInterface::try_receive(Cycle now) {
  if (auto msg = received_.try_pop(now)) return std::move(*msg);
  return nullptr;
}

void NetworkInterface::tick(Cycle now) {
  // Injection: one flit per cycle into the router's local input.
  if (!pending_.empty()) {
    PendingMessage& p = pending_.front();
    constexpr Direction kLocal = Direction::kLocal;
    const bool express = virtual_left_ != 0;
    if (express || router_->can_accept(kLocal)) {
      const bool tail = p.sent_flits + 1 == p.total_flits;
      if (!express) {
        router_->accept(kLocal, p.dst, p.sent_flits, p.total_flits,
                        tail ? std::move(p.msg) : nullptr, now);
      } else if (--virtual_left_ == 0) {
        // Express: the local input's run already stands for every pushed
        // flit, and takes the message with the tail.
        router_->hand_over_tail(static_cast<int>(kLocal), std::move(p.msg));
      }
      ++p.sent_flits;
      ++flits_sent_;
      if (tail) {
        ++messages_sent_;
        pending_.pop();
      }
    }
  }

  // Reception: the message whose tail the router ejected last cycle.
  if (delivered_ != nullptr && delivered_at_ <= now) {
    received_.try_push(std::move(delivered_), now);
    ++messages_received_;
    if (client_ != nullptr) client_->request_wake(now);
  }
}

void NetworkInterface::deliver(MessagePtr msg, Cycle now) {
  assert(delivered_ == nullptr && "two messages ejected in one cycle");
  delivered_ = std::move(msg);
  delivered_at_ = now + 1;
  router_->mesh().mark_ni_busy(tile_.value, now + 1);
}

void NetworkInterface::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  auto& m = t.metrics();
  const std::string prefix = "noc.ni." + std::to_string(tile_.value) + ".";
  m.expose_counter(prefix + "messages_sent", &messages_sent_);
  m.expose_counter(prefix + "messages_received", &messages_received_);
  m.expose_counter(prefix + "flits_sent", &flits_sent_);
  m.expose_gauge(prefix + "rx_high_watermark", [this] {
    return static_cast<double>(received_.high_watermark());
  });
}


}  // namespace panic::noc
