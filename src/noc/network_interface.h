// Network interface (NI): the shim between an engine and its mesh router.
// Segments outgoing messages into flits at the channel bit width, feeds
// them into the router's local input port at one flit per cycle, and
// takes each arriving message from the router when its tail flit is
// ejected.  NIs are not kernel components: the Mesh ticks them (see
// mesh.h).
#pragma once

#include <cstdint>

#include "common/fifo.h"
#include "common/units.h"
#include "noc/flit.h"
#include "noc/router.h"
#include "sim/component.h"
#include "sim/timed_queue.h"

namespace panic::noc {

class NetworkInterface final : public Component {
 public:
  /// `tile` — this NI's address; `channel_bits` — mesh channel width;
  /// `inject_depth` — how many *messages* may be queued for injection
  /// before `can_inject` goes false (engine-side backpressure).
  NetworkInterface(EngineId tile, std::uint32_t channel_bits,
                   Router* router, std::size_t inject_depth = 4);

  EngineId tile() const { return tile_; }

  /// Registers the component consuming reassembled messages (normally the
  /// engine on this tile); it is woken whenever try_receive has work.
  void set_client(Component* client) { client_ = client; }

  /// True if another message can be queued for injection.
  bool can_inject() const { return pending_.size() < inject_depth_; }

  /// Queues `msg` for transmission to `dst`; the first flit enters the
  /// router at the Mesh's next tick.  Marks this NI busy in the Mesh.
  /// Precondition: can_inject().
  void inject(MessagePtr msg, EngineId dst, Cycle now);

  /// Returns a fully reassembled incoming message, or nullptr.
  MessagePtr try_receive(Cycle now);

  /// Pushes at most one flit per cycle into the router (one virtual push
  /// while the front message is an express worm) and moves a delivered
  /// message into the receive queue.
  void tick(Cycle now) override;

  /// Called by the router when a message's tail flit leaves through its
  /// local output at `now`: the message is received at `now + 1`.  At most
  /// one message is ejected per cycle and the next tick takes it, so one
  /// slot suffices.  Marks this NI busy in the Mesh.
  void deliver(MessagePtr msg, Cycle now);

  /// Nothing to segment and nothing delivered: tick() would be a no-op
  /// until inject() or deliver() hands it work.
  bool idle() const { return pending_.empty() && delivered_ == nullptr; }

  /// The earliest cycle after `now` at which tick() can do work: `now + 1`
  /// while segmenting (retrying while the router's local input is full)
  /// or holding a delivered message; kNeverWake when idle.
  Cycle next_due(Cycle now) const {
    return idle() ? kNeverWake : now + 1;
  }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_received() const { return messages_received_; }
  std::uint64_t flits_sent() const { return flits_sent_; }

  /// Publishes `noc.ni.<tile>.*` metrics.
  void register_telemetry(telemetry::Telemetry& t) override;

 private:
  friend class Mesh;

  struct PendingMessage {
    MessagePtr msg;
    EngineId dst;
    std::uint32_t total_flits = 0;
    std::uint32_t sent_flits = 0;
  };

  EngineId tile_;
  std::uint32_t channel_bits_;
  Router* router_;
  std::size_t inject_depth_;
  Component* client_ = nullptr;

  /// Segmentation in progress.  can_inject() advertises `inject_depth_` as
  /// the backpressure bound, but callers that pre-date the bound (tests,
  /// drivers pushing bursts) may exceed it, so the storage grows.
  Fifo<PendingMessage> pending_;
  /// Virtual pushes left of the front message once it went express (the
  /// router's local input already holds its last flits as a run; see
  /// mesh.h).  The last one is the tail push, which hands the message to
  /// that run.
  std::uint32_t virtual_left_ = 0;
  /// The message whose tail flit was ejected, received at `delivered_at_`.
  MessagePtr delivered_;
  Cycle delivered_at_ = 0;
  /// Reassembled messages awaiting the engine.  Logically unbounded (the
  /// engine's scheduler queue does the dropping), so its high watermark is
  /// published as growth telemetry.
  TimedQueue<MessagePtr> received_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t flits_sent_ = 0;
};

}  // namespace panic::noc
