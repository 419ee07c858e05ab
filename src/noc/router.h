// 5-port wormhole mesh router with XY dimension-order routing.
//
// Properties matching §3.1.2 of the paper:
//   * one cycle of latency per hop (flits become visible downstream one
//     cycle after they are forwarded),
//   * lossless operation — a flit only moves when the downstream input
//     buffer has a free slot (credit-based flow control),
//   * XY routing on a 2D mesh, which is deadlock-free without virtual
//     channels.
//
// Flow control is *registered* credit-based, like real hardware: each
// router keeps a per-output credit count initialized to the downstream
// input buffer's depth, spends one credit per forwarded flit, and credits
// freed by downstream pops are staged and folded back at the end of the
// cycle (Mesh folds them at the end of its tick; it visits only the
// outputs a pop staged a return on this cycle).  A freed slot is
// therefore usable by the upstream one cycle later, whatever order the
// routers tick in.
//
// Routers are not kernel components: the Mesh ticks them (see mesh.h).
// In the event kernel the Mesh may also turn a locked, streaming worm's
// inputs into express runs whose body flits move as counted virtual pops
// (mesh.h, "Express worms").
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "noc/burst_queue.h"
#include "sim/component.h"

namespace panic::noc {

enum class Direction : std::uint8_t {
  kNorth = 0,
  kEast,
  kSouth,
  kWest,
  kLocal,
};
inline constexpr int kNumPorts = 5;

const char* to_string(Direction d);

/// The reverse direction on the neighbor: our East output feeds its West
/// input, etc.
inline constexpr Direction kReverse[kNumPorts] = {
    Direction::kSouth, Direction::kWest, Direction::kNorth, Direction::kEast,
    Direction::kLocal};

/// Routing algorithm.  kXY is deterministic dimension-order routing.
/// kWestFirst is the classic turn-model adaptive algorithm: all West hops
/// are taken first (deterministically), after which the flit may choose
/// adaptively among the remaining productive directions — deadlock-free
/// on a mesh without virtual channels, and able to route around congested
/// links for east-bound traffic.
enum class RoutingAlgo : std::uint8_t { kXY, kWestFirst };

class Mesh;
class Router;

/// A router output with credit returns staged this cycle — one entry in a
/// Mesh credit log.  Assumption: an entry exists only if a pop staged a
/// return on that output since the last flush, and at most once per
/// output (the return that takes the staged count from 0 to 1 logs it).
struct CreditReturn {
  Router* router;
  std::uint8_t out;  ///< mesh output (Direction value, < 4)
};

class Router final : public Component {
 public:
  /// `x`,`y` — coordinates in `mesh`, a `k`×`k` mesh; `buffer_flits` —
  /// depth of each input FIFO.
  Router(Mesh* mesh, int x, int y, int k, std::size_t buffer_flits,
         RoutingAlgo algo = RoutingAlgo::kXY);

  int x() const { return x_; }
  int y() const { return y_; }
  /// The Mesh that owns (and ticks) this router.
  Mesh& mesh() const { return *mesh_; }

  /// Wires this router's `dir` output to the neighbor (and expects the
  /// symmetric call on the neighbor).  Initializes the output's credit
  /// count to the neighbor's input-buffer depth.
  void connect(Direction dir, Router* neighbor);

  /// Folds the credit returns staged on mesh output `out` back into its
  /// credit count (a leak-faulted output repays its debt first).  Mesh
  /// runs this at the end of its tick, in every kernel mode — for the
  /// outputs in its credit log only.  Idempotent: a second call finds
  /// nothing staged.
  void flush_credits(int out);

  /// Available credits for output `out` (tests/diagnostics).
  std::uint32_t credits(Direction out) const {
    return credits_[static_cast<int>(out)];
  }

  /// True if the input buffer for `from` can accept a flit (the upstream
  /// credit check).
  bool can_accept(Direction from) const;

  /// Delivers flit `seq` of a `total`-flit message to `dst` into the
  /// `from` input buffer (`msg` rides on the tail flit, nullptr
  /// otherwise); visible to the router's allocation logic from cycle
  /// `now + 1` (the hop latency).  Marks this router busy in the Mesh.
  /// Precondition: can_accept(from).
  void accept(Direction from, EngineId dst, std::uint32_t seq,
              std::uint32_t total, MessagePtr msg, Cycle now);

  /// One allocation + switch traversal cycle.  A no-op (no counter or
  /// round-robin pointer moves) when no head flit is routable at `now`.
  void tick(Cycle now) override;

  /// Every input FIFO is empty: tick() is a no-op until accept().
  bool idle() const { return occupied_ == 0; }

  /// The earliest cycle after `now` at which tick() can do work: `now + 1`
  /// while an input streams virtual pops or a head flit is routable (a
  /// stalled head retries every cycle, so stall accounting matches the
  /// dense kernel), else the earliest head's ready cycle; kNeverWake when
  /// every input is empty.
  Cycle next_due(Cycle now) const {
    if (streaming_ != 0) return now + 1;
    Cycle next = kNeverWake;
    for (unsigned m = occupied_; m != 0; m &= m - 1) {
      const Cycle r = head_ready_[std::countr_zero(m)];
      if (r < next) next = r;
    }
    return next > now + 1 ? next : now + 1;
  }

  // --- Counters for experiments. ---
  std::uint64_t flits_routed() const { return flits_routed_; }
  std::uint64_t stall_cycles() const { return stall_cycles_; }

  /// Flits accepted while can_accept(from) was false — a violated credit
  /// (the sender pushed without a free slot, i.e. the NoC was not
  /// lossless).  Always zero on a correct build; the panic_fuzz lossless
  /// oracle asserts this, catching what the Debug-only assert in accept()
  /// cannot in Release/CI builds.
  std::uint64_t credit_violations() const { return credit_violations_; }

  /// Publishes `noc.router.<tile>.*` metrics (tile id = y*k + x).
  void register_telemetry(telemetry::Telemetry& t) override;

  // --- Fault-injection hooks (armed by fault::FaultInjector). ---

  /// Makes input `port` (-1 = every port) flaky until cycle `until`: each
  /// arriving flit is delayed by an extra `delay` cycles with probability
  /// `probability`.  FIFO order within the port is preserved (delivery is
  /// head-gated), so wormhole correctness holds — delayed flits simply
  /// stretch the message's tail.
  void fault_link(int port, double probability, Cycles delay, Cycle until,
                  std::uint64_t seed);

  /// Permanently removes `amount` credits from input `port` (-1 = every
  /// port): the effective buffer shrinks, and a leak >= the buffer depth
  /// wedges the link — upstream backpressure with no forward progress,
  /// exactly what the watchdog exists to flag.
  void fault_leak_credits(int port, std::uint32_t amount);

  // --- Watchdog probes (fault/watchdog.h). ---
  std::uint64_t progress() const { return flits_routed_; }
  bool has_pending_flits() const { return occupied_ != 0; }

  std::uint64_t flits_delayed() const { return flits_delayed_; }

 private:
  friend class Mesh;
  friend class NetworkInterface;

  /// The outputs (bit per Direction) that are productive and permitted
  /// for a flit to `dst` under the configured routing algorithm (tile id
  /// = y*k + x).  Computed once per head flit, in accept().
  std::uint8_t route_mask(EngineId dst) const;

  /// True if the downstream of output `out` can accept a flit now: a
  /// registered credit for mesh outputs.  kLocal is always ready: at most
  /// one input owns it, so at most one flit leaves through it per cycle,
  /// and the NI takes the message the next cycle (DESIGN.md, NIBUSY).
  bool downstream_ready(int out) const {
    return out == static_cast<int>(Direction::kLocal) || credits_[out] > 0;
  }

  /// Sends flit `seq` of a `total`-flit message to `dst` out of `out`
  /// (`msg` on the tail flit).  A mesh output spends a credit and hands
  /// the flit to the neighbor, unless it came off an express run
  /// (`express`), whose downstream input counts it as a virtual pop — then
  /// only a tail moves, its message joining the downstream run.  kLocal
  /// hands the tail's message to the NI; body flits end here.
  void forward(int out, EngineId dst, std::uint32_t seq, std::uint32_t total,
               MessagePtr msg, bool express, Cycle now);

  /// Attaches the message of a tail flit that moved virtually to input
  /// `in`'s express run (HANDOVER in mesh.h).
  void hand_over_tail(int in, MessagePtr msg) {
    inputs_[in].attach_tail(std::move(msg));
  }

  /// One virtual pop on every streaming input (see mesh.h, "Express
  /// worms"): the counters a real pop of a body flit would move.
  void count_virtual_pops();

  /// Express install on input `i` (Mesh only): its flits become one run
  /// of `count` flits from flit `seq`, the first routable at `ready`, and
  /// the input streams `virtual_pops` virtual pops first.
  void start_express(int i, std::uint32_t seq, std::uint32_t count,
                     Cycle ready, std::uint32_t virtual_pops);

  /// Turns every express input back into ordinary flits as of the end of
  /// the Mesh tick of cycle `last_tick`: a streaming input's run becomes
  /// the flits it would physically hold then; a run past its virtual pops
  /// stays as it is.
  void materialize_express(Cycle last_tick);

  /// Called by the downstream router when it pops a flit we forwarded:
  /// stages one credit back for output `out`, visible after the next
  /// flush_credits(), and logs the output in the Mesh's credit log when
  /// nothing was staged on it yet.
  void stage_credit_return(int out);

  Mesh* mesh_;
  int x_;
  int y_;
  int k_;
  int tile_;
  RoutingAlgo algo_;

  /// Input FIFOs store flit bursts (contiguous runs of one message as a
  /// single descriptor); capacity and credits are still counted in flits.
  std::array<FlitBurstQueue, kNumPorts> inputs_;
  /// Input-queue heads as arrays, kept in step on every push and pop so a
  /// tick reads them instead of five rings.  head_ready_[i] is the ready
  /// cycle of input i's oldest flit (kNeverWake when empty); head_want_[i]
  /// holds the output bits input i's head flit can take: its route mask
  /// for a head flit, the output its message owns (owned_[i]) for a body
  /// flit.
  std::array<Cycle, kNumPorts> head_ready_;
  std::array<std::uint8_t, kNumPorts> head_want_{};
  /// Bit i set iff inputs_[i] is non-empty (idle, next_due and the ready
  /// scan visit only these).
  unsigned occupied_ = 0;
  std::array<Router*, kNumPorts> neighbors_{};

  /// Express state (event kernel only, see mesh.h).  Bit i of `express_`
  /// is set while input i's front burst is an express run, whose pops
  /// forward nothing but the tail's message; bit i of `streaming_` while
  /// input i still has `virtual_left_[i]` virtual pops to count.
  unsigned express_ = 0;
  unsigned streaming_ = 0;
  std::array<std::uint32_t, kNumPorts> virtual_left_{};

  /// Registered flow-control state for the four mesh outputs (kLocal
  /// needs none).  `returns_staged_[o]` is written only by the
  /// downstream neighbor of output o (which logs o in the Mesh credit log
  /// on the 0 -> 1 step) and consumed by the flush; `leak_debt_[o]`
  /// swallows staged returns after a fault_leak_credits on the downstream
  /// input, making the leak permanent.
  std::array<std::uint32_t, 4> credits_{};
  std::array<std::uint32_t, 4> returns_staged_{};
  std::array<std::uint32_t, 4> leak_debt_{};

  /// Wormhole state: which input currently owns each output (-1 = free).
  std::array<int, kNumPorts> output_owner_;
  /// The reverse map as output bits: owned_[i] is the bit of the output
  /// input i holds (0 = none) — the output its body flits want.  Only a
  /// body flit's input owns an output, and that output is never free, so
  /// a free output is wanted by head flits alone.
  std::array<std::uint8_t, kNumPorts> owned_{};
  /// Round-robin arbitration pointer per output.
  std::array<int, kNumPorts> rr_;

  std::uint64_t flits_routed_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::uint64_t credit_violations_ = 0;

  // --- Fault state (inert — one predicted branch — until armed). ---
  struct PortFault {
    double flaky_p = 0.0;
    Cycles flaky_delay = 0;
    Cycle flaky_until = 0;
    std::uint32_t leaked_credits = 0;
    Rng rng{0};
  };
  std::array<PortFault, kNumPorts> port_faults_{};
  bool faults_armed_ = false;
  std::uint64_t flits_delayed_ = 0;
  std::uint64_t credits_leaked_ = 0;
};

}  // namespace panic::noc
