// Builds the k×k mesh of routers and network interfaces that forms the
// PANIC on-chip network (Figure 3c).  Tile addresses are row-major:
// tile(x, y) = y*k + x; EngineId values are tile addresses.
//
// The Mesh is the one kernel component for the whole NoC: routers and NIs
// are not registered with the simulator.  Each Mesh tick runs the NIs,
// then the routers, in tile order, and then folds the credit returns the
// tick's pops staged.  Registered before every engine, this keeps the
// kernel's same-cycle rules: an NI's wake of its engine lands the same
// cycle, an engine's injection the next (DESIGN.md, "The order argument").
// In the event kernel it ticks only *busy* elements, from two bitsets:
//
//   * an NI is busy while it has a message to segment or a flit in its
//     router's eject queue;
//   * a router is busy while any of its input FIFOs holds a flit.
//
// A bit is set by every push that can make its element busy
// (Router::accept, NetworkInterface::inject, a router's local ejection),
// and cleared only right after the element's tick leaves it idle — the
// only place its queues pop.  A parked Mesh is woken by the push.  In
// kStrictTick mode the Mesh ticks every NI and router every cycle and
// never reads the bitsets, so the dense kernel stays an independent
// reference for them.  See DESIGN.md §"The NoC as one kernel component".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "noc/network_interface.h"
#include "noc/router.h"
#include "sim/component.h"
#include "sim/simulator.h"

namespace panic::noc {

struct MeshConfig {
  int k = 6;                         ///< mesh side (k×k tiles)
  std::uint32_t channel_bits = 64;   ///< link width per cycle
  std::size_t buffer_flits = 8;      ///< input FIFO depth per port
  std::size_t inject_depth = 4;      ///< NI message injection queue
  RoutingAlgo routing = RoutingAlgo::kXY;
};

class Mesh : public Component {
 public:
  /// Constructs the routers/NIs and registers the Mesh with `sim`.
  Mesh(const MeshConfig& config, Simulator& sim);

  int k() const { return config_.k; }
  int tiles() const { return config_.k * config_.k; }
  std::uint32_t channel_bits() const { return config_.channel_bits; }
  const MeshConfig& config() const { return config_; }

  EngineId tile_id(int x, int y) const {
    return EngineId{static_cast<std::uint16_t>(y * config_.k + x)};
  }

  Router& router(EngineId tile) { return *routers_[tile.value]; }
  NetworkInterface& ni(EngineId tile) { return *nis_[tile.value]; }

  /// Manhattan distance between two tiles (minimum hop count - 1 ... the
  /// head flit also traverses the destination router, so latency lower
  /// bound is distance + 1 router cycles).
  int distance(EngineId a, EngineId b) const;

  /// Sum of flits routed across all routers (for utilization accounting).
  std::uint64_t total_flits_routed() const;

  /// Router outputs folded by the end-of-tick credit flush so far
  /// (`noc.credit_flushes`).  One per output per cycle in which a pop
  /// staged a credit return on it, so it depends only on the pops and is
  /// identical under both kernels.
  std::uint64_t credit_flushes() const { return credit_flushes_; }

  /// Busy NIs, then busy routers, in tile order (every one in dense
  /// mode); then the credit fold.
  void tick(Cycle now) override;

  /// `now + 1` while a busy element has work due then; otherwise the
  /// earliest head-ready stamp (flaky-delayed flits); kNeverWake when
  /// nothing is busy — so fast-forward is never lost.
  Cycle next_wake(Cycle now) const override;

  /// Publishes every NI's and router's metrics (and binds their trace
  /// tags) in NI-then-router order, then the `noc.*` totals.
  void register_telemetry(telemetry::Telemetry& t) override;

 private:
  friend class Router;
  friend class NetworkInterface;

  /// Sets `tile`'s bit in `busy`; a parked Mesh is woken for `at`.
  void mark_busy(std::vector<std::uint64_t>& busy, int tile, Cycle at) {
    busy[static_cast<std::size_t>(tile) >> 6] |= std::uint64_t{1}
                                                 << (tile & 63);
    if (!kernel_awake()) request_wake(at);
  }
  void mark_router_busy(int tile, Cycle at) {
    mark_busy(router_busy_, tile, at);
  }
  void mark_ni_busy(int tile, Cycle at) { mark_busy(ni_busy_, tile, at); }

  MeshConfig config_;
  bool dense_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// Busy sets, one bit per tile (see the file comment for the
  /// invariants).
  std::vector<std::uint64_t> ni_busy_;
  std::vector<std::uint64_t> router_busy_;
  /// The outputs whose staged credit returns the end-of-tick flush must
  /// fold, logged by the pops of this tick (see CreditReturn).
  std::vector<CreditReturn> credit_log_;
  std::uint64_t credit_flushes_ = 0;
};

}  // namespace panic::noc
