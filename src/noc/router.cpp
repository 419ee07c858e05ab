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
constexpr std::size_t kEjectDepth = 8;  // flits buffered toward the NI

// The reverse direction on the neighbor: our East output feeds its West
// input, etc.
constexpr Direction kReverse[] = {Direction::kSouth, Direction::kWest,
                                  Direction::kNorth, Direction::kEast,
                                  Direction::kLocal};
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
              FlitBurstQueue(buffer_flits)},
      eject_(kEjectDepth) {
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

void Router::accept(Direction from, Flit&& flit, Cycle now) {
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
  const std::uint8_t route = flit.is_head() ? route_mask(flit.dst) : 0;
  if (q.empty()) {
    head_ready_[i] = ready;
    head_want_[i] = flit.is_head() ? route : owned_[i];
  }
  q.push_flit(std::move(flit), ready, route);
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
    if (p == static_cast<int>(Direction::kLocal)) continue;
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

void Router::forward(int out, Flit&& flit, Cycle now) {
  ++flits_routed_;
  // The tail flit carries the message, so the hop is attributed when the
  // whole message has cleared this router (keeps Flit free of extra
  // per-flit state on the hot path).
  if (flit.is_tail() && flit.msg != nullptr) {
    trace(telemetry::TraceEventKind::kNocHop, now, flit.msg->id,
          flit.dst.value);
  }
  if (out == static_cast<int>(Direction::kLocal)) {
    assert(!eject_.full());
    eject_.push_flit(std::move(flit), now + 1);
    mesh_->mark_ni_busy(tile_, now + 1);
    return;
  }
  assert(neighbors_[out] != nullptr &&
         "flit routed toward a missing neighbor");
  assert(credits_[out] > 0 && "forward() without a credit");
  --credits_[out];
  neighbors_[out]->accept(kReverse[out], std::move(flit), now);
}

void Router::tick(Cycle now) {
  // Inputs whose head flit is routable this cycle.  Within this tick an
  // input's readiness only changes when it pops (upstream accepts land
  // with ready >= now + 1), and one flit may leave per input per cycle, so
  // a popping input just drops out of the mask.  With the mask empty the
  // allocation loop is a no-op — no flit moves, no counter or round-robin
  // pointer changes — which is what lets the Mesh skip idle and
  // not-yet-ready routers outright.
  unsigned ready = 0;
  for (int i = 0; i < kNumPorts; ++i) {
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
    Flit flit = q.pop_flit();
    ready &= ~(1u << chosen);
    if (flit.is_tail()) {
      output_owner_[o] = -1;
      owned_[chosen] = 0;
    } else {
      output_owner_[o] = chosen;
      owned_[chosen] = static_cast<std::uint8_t>(1u << o);
    }
    if (q.empty()) {
      head_ready_[chosen] = kNeverWake;
    } else {
      const FlitBurst& next = q.front();
      head_ready_[chosen] = next.ready;
      head_want_[chosen] = next.seq == 0 ? next.route : owned_[chosen];
    }
    // Return the freed buffer slot to the upstream router as a credit,
    // visible after the end-of-tick flush (kLocal is fed by the NI, which
    // uses the live can_accept() check instead).
    if (chosen != static_cast<int>(Direction::kLocal) &&
        neighbors_[chosen] != nullptr) {
      neighbors_[chosen]->stage_credit_return(
          static_cast<int>(kReverse[chosen]));
    }
    if (flit.msg != nullptr) ++flit.msg->noc_hops;  // tail flit carries msg
    forward(o, std::move(flit), now);
  }
}

}  // namespace panic::noc
