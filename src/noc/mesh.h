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
//   * an NI is busy while it has a message to segment or one delivered
//     by its router's local output;
//   * a router is busy while any of its input FIFOs holds a flit.
//
// A bit is set by every push that can make its element busy
// (Router::accept, NetworkInterface::inject, NetworkInterface::deliver),
// and cleared only right after the element's tick leaves it idle — the
// only place its queues pop.  A parked Mesh is woken by the push.  In
// kStrictTick mode the Mesh ticks every NI and router every cycle and
// never reads the bitsets, so the dense kernel stays an independent
// reference for them.  See DESIGN.md §"The NoC as one kernel component".
//
// Express worms (event kernel only; DESIGN.md §"Express worms").  Once a
// worm's head has been ejected and its whole path streams one flit per
// cycle, every later cycle of the worm is determined: each hop pops one
// flit per cycle until the tail.  The Mesh then keeps in each path input
// only the run of flits it will still hold when its upstream hop
// finishes; every earlier body flit becomes a virtual pop — the counters
// a real pop moves, and nothing else.  The assumptions, by name:
//
//   * LOCKED — every path output is owned by the worm (its tail has
//     passed no hop), so no other flit can enter a path input or take a
//     path output until the tail pops;
//   * STEADY — at the end of the install cycle t every path input is
//     non-empty, its head is routable by t + 1 and it holds at most
//     capacity - 1 flits, and the source NI is still segmenting the worm:
//     then every hop pops one flit per cycle and the NI pushes one per
//     cycle until the tail, with no stall;
//   * CONTIGUOUS — each path input holds only the worm's flits, and hop
//     h's last flit + 1 is hop h-1's first (the NI's sent count at the
//     source);
//   * NOFAULT — no router fault was ever armed in this Mesh: arming one
//     first materializes every express worm back into real flits and
//     disables express for the rest of the run;
//   * HANDOVER — a run's pops are ordinary pops, except that their
//     forward pushes nothing and spends no credit (the downstream input is
//     counting virtual pops meanwhile); the tail's message joins the
//     downstream run, or the NI.  Credits are never touched: they already
//     equal capacity - n downstream, and the downstream run's real pops
//     return them.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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

  /// Worms that went express so far — a diagnostic for tests and benches,
  /// not a published metric (the dense kernel never expresses, and the
  /// result JSON must not depend on the kernel).
  std::uint64_t express_worms() const { return express_worms_; }

  /// Busy NIs, then busy routers, in tile order (every one in dense
  /// mode); then the credit fold; then the express check of the worms
  /// whose head was ejected (event kernel only).
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

  /// A head flit took `tile`'s local output: its worm is an express
  /// candidate (while express is enabled).
  void note_ejected_head(int tile) {
    if (express_ok_) express_candidates_.push_back(tile);
  }

  enum class ExpressCheck : std::uint8_t { kInstalled, kRetry, kDrop };
  /// Walks back from `tile`'s local output along the owned outputs to the
  /// source NI and installs the worm as express if LOCKED, STEADY and
  /// CONTIGUOUS hold at the end of cycle `now`; kRetry if it may qualify
  /// later, kDrop if it never can (its tail has passed a hop or left the
  /// NI, or it already is express).
  ExpressCheck try_express(int tile, Cycle now);

  /// Turns every express worm back into real flits as of the end of the
  /// last tick and disables express for the rest of the run (NOFAULT).
  /// Called by the router fault hooks before they arm.
  void materialize_express();

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

  /// Express state: enabled in the event kernel until a fault is armed;
  /// the destination tiles of worms not yet express (may repeat); the
  /// path being checked, destination first, as (router, input) pairs.
  bool express_ok_;
  std::vector<int> express_candidates_;
  std::vector<std::pair<Router*, int>> express_path_;
  Cycle last_tick_ = 0;
  std::uint64_t express_worms_ = 0;
};

}  // namespace panic::noc
