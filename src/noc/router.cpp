#include "noc/router.h"

#include <bit>
#include <cassert>

#include "noc/mesh.h"
#include "telemetry/telemetry.h"

namespace panic::noc {

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
    case Direction::kLocal: return "L";
  }
  return "?";
}

namespace {
constexpr int kLocalPort = static_cast<int>(Direction::kLocal);
}  // namespace

Router::Router(Mesh* mesh, int x, int y, int k, std::size_t buffer_flits,
               RoutingAlgo algo)
    : Component("router(" + std::to_string(x) + "," + std::to_string(y) + ")"),
      mesh_(mesh),
      x_(x),
      y_(y),
      k_(k),
      tile_(y * k + x),
      algo_(algo),
      inputs_{FlitBurstQueue(buffer_flits), FlitBurstQueue(buffer_flits),
              FlitBurstQueue(buffer_flits), FlitBurstQueue(buffer_flits),
              FlitBurstQueue(buffer_flits)} {
  head_ready_.fill(kNeverWake);
  output_owner_.fill(-1);
  rr_.fill(0);
}

void Router::connect(Direction dir, Router* neighbor) {
  const int d = static_cast<int>(dir);
  neighbors_[d] = neighbor;
  // Registered credits start at the downstream input buffer's full depth.
  if (dir != Direction::kLocal && neighbor != nullptr) {
    credits_[d] = static_cast<std::uint32_t>(
        neighbor->inputs_[static_cast<int>(kReverse[d])].capacity());
  }
}

void Router::flush_credits(int o) {
  std::uint32_t r = returns_staged_[o];
  returns_staged_[o] = 0;
  if (leak_debt_[o] != 0) {
    const std::uint32_t take = r < leak_debt_[o] ? r : leak_debt_[o];
    leak_debt_[o] -= take;
    r -= take;
  }
  credits_[o] += r;
}

bool Router::can_accept(Direction from) const {
  const auto& q = inputs_[static_cast<int>(from)];
  if (!faults_armed_) return !q.full();
  // Leaked credits shrink the effective buffer (upstream sees fewer
  // credits than the buffer physically holds).
  const std::uint32_t leaked =
      port_faults_[static_cast<int>(from)].leaked_credits;
  return q.size() + leaked < q.capacity();
}

void Router::accept(Direction from, EngineId dst, std::uint32_t seq,
                    std::uint32_t total, MessagePtr msg, Cycle now) {
  const int i = static_cast<int>(from);
  auto& q = inputs_[i];
  assert(!q.full());
  // The assert above vanishes under NDEBUG; keep a counter the fuzz
  // harness's lossless-NoC oracle can check in any build flavor.
  if (!can_accept(from)) ++credit_violations_;
  // +1: the hop latency — the flit is routable the cycle after it arrives.
  Cycle ready = now + 1;
  if (faults_armed_) {
    PortFault& pf = port_faults_[i];
    if (pf.flaky_p > 0.0 && now < pf.flaky_until &&
        pf.rng.bernoulli(pf.flaky_p)) {
      ready += pf.flaky_delay;
      ++flits_delayed_;
    }
  }
  const std::uint8_t route = seq == 0 ? route_mask(dst) : 0;
  if (q.empty()) {
    head_ready_[i] = ready;
    head_want_[i] = seq == 0 ? route : owned_[i];
    occupied_ |= 1u << i;
  }
  q.push(dst, seq, total, ready, route, std::move(msg));
  mesh_->mark_router_busy(tile_, ready);
}

std::uint8_t Router::route_mask(EngineId dst) const {
  auto bit = [](Direction d) {
    return static_cast<std::uint8_t>(1u << static_cast<int>(d));
  };
  const int dx = dst.value % k_ - x_;
  const int dy = dst.value / k_ - y_;
  if (dx == 0 && dy == 0) return bit(Direction::kLocal);

  if (algo_ == RoutingAlgo::kXY) {
    // Dimension order: X fully, then Y.
    if (dx > 0) return bit(Direction::kEast);
    if (dx < 0) return bit(Direction::kWest);
    return bit(dy > 0 ? Direction::kSouth : Direction::kNorth);
  }

  // West-first: all West hops first; afterwards any productive direction
  // (E/N/S toward the destination) is allowed — turns into West are the
  // only ones prohibited, which breaks every cycle of the turn graph.
  if (dx < 0) return bit(Direction::kWest);
  std::uint8_t mask = 0;
  if (dx > 0) mask |= bit(Direction::kEast);
  if (dy > 0) mask |= bit(Direction::kSouth);
  if (dy < 0) mask |= bit(Direction::kNorth);
  return mask;
}

void Router::register_telemetry(telemetry::Telemetry& t) {
  Component::register_telemetry(t);
  auto& m = t.metrics();
  const std::string prefix =
      "noc.router." + std::to_string(y_ * k_ + x_) + ".";
  m.expose_counter(prefix + "flits", &flits_routed_);
  m.expose_counter(prefix + "stall_cycles", &stall_cycles_);
  m.expose_counter(prefix + "flits_delayed", &flits_delayed_);
  m.expose_counter(prefix + "credits_leaked", &credits_leaked_);
  m.expose_counter(prefix + "credit_violations", &credit_violations_);
}

void Router::fault_link(int port, double probability, Cycles delay,
                        Cycle until, std::uint64_t seed) {
  mesh_->materialize_express();  // NOFAULT ends here (mesh.h)
  for (int p = 0; p < kNumPorts; ++p) {
    if (port >= 0 && p != port) continue;
    PortFault& pf = port_faults_[p];
    pf.flaky_p = probability;
    pf.flaky_delay = delay;
    pf.flaky_until = until;
    // Distinct stream per port so an all-port fault stays deterministic.
    pf.rng = Rng(seed + static_cast<std::uint64_t>(p) * 0x9E3779B9ull);
  }
  faults_armed_ = true;
}

void Router::fault_leak_credits(int port, std::uint32_t amount) {
  mesh_->materialize_express();  // NOFAULT ends here (mesh.h)
  for (int p = 0; p < kNumPorts; ++p) {
    if (port >= 0 && p != port) continue;
    port_faults_[p].leaked_credits += amount;
    credits_leaked_ += amount;
    // Mesh inputs: take the credits away from the upstream's registered
    // count for its output toward us.  What the upstream does not hold
    // right now becomes debt that swallows future staged returns — the
    // leak is permanent either way (a leak >= the buffer depth wedges the
    // link, which is what the watchdog exists to flag).  kLocal keeps the
    // live can_accept() check the NI performs.
    if (p == kLocalPort) continue;
    Router* up = neighbors_[p];
    if (up == nullptr) continue;
    const int up_out = static_cast<int>(kReverse[p]);
    const std::uint32_t held = up->credits_[up_out];
    const std::uint32_t taken = held < amount ? held : amount;
    up->credits_[up_out] = held - taken;
    up->leak_debt_[up_out] += amount - taken;
  }
  faults_armed_ = true;
}

void Router::stage_credit_return(int out) {
  if (returns_staged_[out]++ == 0) {
    mesh_->credit_log_.push_back(
        CreditReturn{this, static_cast<std::uint8_t>(out)});
  }
}

void Router::forward(int out, EngineId dst, std::uint32_t seq,
                     std::uint32_t total, MessagePtr msg, bool express,
                     Cycle now) {
  ++flits_routed_;
  // The tail flit carries the message, so the hop is attributed when the
  // whole message has cleared this router.
  if (msg != nullptr) {
    trace(telemetry::TraceEventKind::kNocHop, now, msg->id, dst.value);
  }
  if (out == kLocalPort) {
    // Body flits end here; the NI takes the tail's message next cycle.
    if (msg != nullptr) mesh_->nis_[tile_]->deliver(std::move(msg), now);
    return;
  }
  assert(neighbors_[out] != nullptr &&
         "flit routed toward a missing neighbor");
  Router& next = *neighbors_[out];
  const int in = static_cast<int>(kReverse[out]);
  if (express) {
    // The downstream input counts this flit as a virtual pop (HANDOVER in
    // mesh.h): nothing moves and no credit is spent — except the tail's
    // message, which joins the downstream run.
    if (msg != nullptr) next.hand_over_tail(in, std::move(msg));
    return;
  }
  assert(credits_[out] > 0 && "forward() without a credit");
  --credits_[out];
  next.accept(kReverse[out], dst, seq, total, std::move(msg), now);
}

void Router::count_virtual_pops() {
  for (unsigned m = streaming_; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    ++flits_routed_;
    // A pop off a mesh input stages one credit return upstream, folded
    // the same cycle: one credit flush.
    if (i != kLocalPort) ++mesh_->credit_flushes_;
    if (--virtual_left_[i] == 0) streaming_ &= ~(1u << i);
  }
}

void Router::start_express(int i, std::uint32_t seq, std::uint32_t count,
                           Cycle ready, std::uint32_t virtual_pops) {
  assert(virtual_pops != 0);
  inputs_[i].reset_run(seq, count, ready);
  head_ready_[i] = ready;
  virtual_left_[i] = virtual_pops;
  express_ |= 1u << i;
  streaming_ |= 1u << i;
}

void Router::materialize_express(Cycle last_tick) {
  for (unsigned m = streaming_; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    FlitBurstQueue& q = inputs_[i];
    // In steady flow the input received one flit per cycle, so the n
    // flits it holds arrived at last_tick - n + 1 ... last_tick; ahead of
    // them are the virtual pops not yet counted.
    const auto n = static_cast<std::uint32_t>(q.size());
    const Cycle ready = last_tick + 2 - n;
    q.reset_run(q.front().seq - virtual_left_[i], n, ready);
    head_ready_[i] = ready;
    virtual_left_[i] = 0;
  }
  streaming_ = 0;
  express_ = 0;
}

void Router::tick(Cycle now) {
  // An express input counts this cycle's virtual pop (mesh.h).
  if (streaming_ != 0) count_virtual_pops();

  // Inputs whose head flit is routable this cycle.  Within this tick an
  // input's readiness only changes when it pops (upstream accepts land
  // with ready >= now + 1), and one flit may leave per input per cycle, so
  // a popping input just drops out of the mask.  With the mask empty the
  // allocation loop is a no-op — no flit moves, no counter or round-robin
  // pointer changes — which is what lets the Mesh skip idle and
  // not-yet-ready routers outright.
  unsigned ready = 0;
  for (unsigned m = occupied_; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    if (head_ready_[i] <= now) ready |= 1u << i;
  }
  if (ready == 0) return;

  // The outputs some ready input wants.  Every other output would find no
  // candidate (its owner, if any, is not ready) and change nothing, so
  // only these are visited, in the same ascending order.
  unsigned want = 0;
  for (unsigned m = ready; m != 0; m &= m - 1) {
    want |= head_want_[std::countr_zero(m)];
  }

  // One flit may leave per output port per cycle.
  for (; want != 0 && ready != 0; want &= want - 1) {
    const int o = std::countr_zero(want);
    int chosen = -1;
    if (output_owner_[o] >= 0) {
      // Wormhole: the output is locked to an input until the tail passes.
      const int i = output_owner_[o];
      if ((ready >> i) & 1u) chosen = i;
    } else {
      // Allocate: round-robin from rr_[o] over ready inputs whose head
      // flit is a head flit routed to this output (a free output is
      // wanted by head flits only).  Bit s of `order` is input
      // (rr_[o] + s) % kNumPorts.
      unsigned candidates = 0;
      for (unsigned m = ready; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        if ((head_want_[i] >> o) & 1u) candidates |= 1u << i;
      }
      if (candidates != 0) {
        const int start = rr_[o];
        const unsigned order =
            ((candidates >> start) | (candidates << (kNumPorts - start))) &
            ((1u << kNumPorts) - 1);
        chosen = (start + std::countr_zero(order)) % kNumPorts;
        rr_[o] = (chosen + 1) % kNumPorts;
      }
    }

    if (chosen < 0) continue;
    if (!downstream_ready(o)) {
      ++stall_cycles_;  // a flit was ready but the downstream buffer was full
      continue;
    }

    FlitBurstQueue& q = inputs_[chosen];
    const EngineId dst = q.front().dst;
    const std::uint32_t seq = q.front().seq;
    const std::uint32_t total = q.front().total;
    MessagePtr msg = q.pop();
    const unsigned bit = 1u << chosen;
    const bool express = (express_ & bit) != 0;
    ready &= ~bit;
    if (seq + 1 == total) {
      output_owner_[o] = -1;
      owned_[chosen] = 0;
      express_ &= ~bit;  // an express run ends with its tail
    } else {
      output_owner_[o] = chosen;
      owned_[chosen] = static_cast<std::uint8_t>(1u << o);
      // A head taking the local output: its worm may go express once the
      // path streams (checked at the end of the Mesh tick).
      if (seq == 0 && o == kLocalPort) mesh_->note_ejected_head(tile_);
    }
    if (q.empty()) {
      head_ready_[chosen] = kNeverWake;
      occupied_ &= ~bit;
    } else {
      const FlitBurst& next = q.front();
      head_ready_[chosen] = next.ready;
      head_want_[chosen] = next.seq == 0 ? next.route : owned_[chosen];
    }
    // Return the freed buffer slot to the upstream router as a credit,
    // visible after the end-of-tick flush (kLocal is fed by the NI, which
    // uses the live can_accept() check instead).
    if (chosen != kLocalPort && neighbors_[chosen] != nullptr) {
      neighbors_[chosen]->stage_credit_return(
          static_cast<int>(kReverse[chosen]));
    }
    if (msg != nullptr) ++msg->noc_hops;  // the tail flit carries msg
    forward(o, dst, seq, total, std::move(msg), express, now);
  }
}

}  // namespace panic::noc
