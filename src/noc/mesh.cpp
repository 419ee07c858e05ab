#include "noc/mesh.h"

#include <bit>
#include <cassert>
#include <cstdlib>

#include "telemetry/telemetry.h"

namespace panic::noc {

Mesh::Mesh(const MeshConfig& config, Simulator& sim)
    : Component("noc"),
      config_(config),
      dense_(sim.mode() == SimMode::kStrictTick),
      express_ok_(!dense_) {
  const int k = config_.k;
  assert(k >= 2);
  const auto tiles = static_cast<std::size_t>(k) * k;
  routers_.reserve(tiles);
  nis_.reserve(tiles);
  ni_busy_.resize((tiles + 63) / 64);
  router_busy_.resize((tiles + 63) / 64);

  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      routers_.push_back(std::make_unique<Router>(
          this, x, y, k, config_.buffer_flits, config_.routing));
    }
  }
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      Router* r = routers_[static_cast<std::size_t>(y) * k + x].get();
      if (y > 0) {
        r->connect(Direction::kNorth,
                   routers_[static_cast<std::size_t>(y - 1) * k + x].get());
      }
      if (y + 1 < k) {
        r->connect(Direction::kSouth,
                   routers_[static_cast<std::size_t>(y + 1) * k + x].get());
      }
      if (x > 0) {
        r->connect(Direction::kWest,
                   routers_[static_cast<std::size_t>(y) * k + x - 1].get());
      }
      if (x + 1 < k) {
        r->connect(Direction::kEast,
                   routers_[static_cast<std::size_t>(y) * k + x + 1].get());
      }
    }
  }
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const EngineId tile = tile_id(x, y);
      nis_.push_back(std::make_unique<NetworkInterface>(
          tile, config_.channel_bits, routers_[tile.value].get(),
          config_.inject_depth));
    }
  }

  sim.add(this);
}

void Mesh::register_telemetry(telemetry::Telemetry& t) {
  // No Component::register_telemetry here: the Mesh records no trace
  // events of its own, so it interns no trace tag.  NIs then routers, in
  // tile order, fixes their trace-tag ids and metric order.
  for (auto& ni : nis_) ni->register_telemetry(t);
  for (auto& r : routers_) r->register_telemetry(t);
  t.metrics().expose_gauge("noc.flits_routed", [this] {
    return static_cast<double>(total_flits_routed());
  });
  t.metrics().expose_counter("noc.credit_flushes", &credit_flushes_);
}

namespace {

/// Ticks the elements of `elems` whose bit is set in `busy`, in index
/// order, clearing the bit of each one its tick leaves idle.  Bits set
/// during the scan in a later word are visited this cycle and bits in the
/// current word from the next cycle on; both are no-op ticks this cycle,
/// because every push lands with ready >= now + 1.
template <typename T>
void tick_busy(std::vector<std::uint64_t>& busy,
               const std::vector<std::unique_ptr<T>>& elems, Cycle now) {
  for (std::size_t w = 0; w < busy.size(); ++w) {
    for (std::uint64_t bits = busy[w]; bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      T& e = *elems[w * 64 + static_cast<std::size_t>(b)];
      e.tick(now);
      if (e.idle()) busy[w] &= ~(std::uint64_t{1} << b);
    }
  }
}

/// The earliest next_due over the busy elements; stops at `now + 1`.
template <typename T>
Cycle next_due(const std::vector<std::uint64_t>& busy,
               const std::vector<std::unique_ptr<T>>& elems, Cycle now,
               Cycle next) {
  for (std::size_t w = 0; w < busy.size(); ++w) {
    for (std::uint64_t bits = busy[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      const Cycle due = elems[i]->next_due(now);
      if (due <= now + 1) return now + 1;
      if (due < next) next = due;
    }
  }
  return next;
}

}  // namespace

void Mesh::tick(Cycle now) {
  last_tick_ = now;
  if (dense_) {
    for (auto& ni : nis_) ni->tick(now);
    for (auto& r : routers_) r->tick(now);
  } else {
    tick_busy(ni_busy_, nis_, now);
    tick_busy(router_busy_, routers_, now);
  }

  // Registered credit-based flow control: credits freed by this tick's
  // pops become visible to upstream routers at the next cycle (see
  // noc/router.h).  Every pop happens inside this tick, so folding here is
  // the same as folding at the end of the cycle.  Only logged outputs are
  // folded — a tick without pops costs nothing here, however large the
  // mesh — and each once, independently, so the log order is immaterial.
  for (const CreditReturn& c : credit_log_) c.router->flush_credits(c.out);
  credit_flushes_ += credit_log_.size();
  credit_log_.clear();

  // Express check, after the fold so credits are those of cycle now + 1.
  std::size_t keep = 0;
  for (const int tile : express_candidates_) {
    if (try_express(tile, now) == ExpressCheck::kRetry) {
      express_candidates_[keep++] = tile;
    }
  }
  express_candidates_.resize(keep);
}

Mesh::ExpressCheck Mesh::try_express(int tile, Cycle now) {
  constexpr int kLocal = static_cast<int>(Direction::kLocal);
  // LOCKED: follow the owned outputs back to the source's local input.
  express_path_.clear();
  Router* r = routers_[static_cast<std::size_t>(tile)].get();
  int out = kLocal;
  for (;;) {
    const int in = r->output_owner_[out];
    if (in < 0 || ((r->express_ >> in) & 1u) != 0) return ExpressCheck::kDrop;
    express_path_.emplace_back(r, in);
    if (in == kLocal) break;
    out = static_cast<int>(kReverse[in]);
    r = r->neighbors_[in];
  }
  NetworkInterface& ni = *nis_[static_cast<std::size_t>(r->tile_)];
  if (ni.pending_.empty()) return ExpressCheck::kDrop;
  const NetworkInterface::PendingMessage& p = ni.pending_.front();
  const std::uint32_t total = p.total_flits;

  // STEADY and CONTIGUOUS, destination first: `next` is the first flit
  // the hop upstream of the one just checked must hold.
  std::uint32_t next = 0;
  for (std::size_t h = 0; h < express_path_.size(); ++h) {
    const auto [hop, in] = express_path_[h];
    const FlitBurstQueue& q = hop->inputs_[in];
    if (q.empty()) return ExpressCheck::kRetry;
    const FlitBurst& front = q.front();
    if (front.dst != p.dst || front.total != total) return ExpressCheck::kDrop;
    // One message's flits in order: a burst of any other message would
    // restart at flit 0 and break the count.
    const auto n = static_cast<std::uint32_t>(q.size());
    if (q.back().seq + q.back().count != front.seq + n ||
        (h != 0 && front.seq != next)) {
      return ExpressCheck::kRetry;
    }
    if (n + 1 > q.capacity() || hop->head_ready_[in] > now + 1) {
      return ExpressCheck::kRetry;
    }
    next = front.seq + n;
  }
  if (p.sent_flits != next) return ExpressCheck::kDrop;

  // Install: hop h holding n flits from flit a pops its tail at
  // T = now + total - a; it keeps the run total-n ... total-1, routable
  // T-n+1 ... T, and counts the total-a-n earlier flits as virtual pops
  // over now+1 ... T-n.
  for (const auto& [hop, in] : express_path_) {
    const FlitBurstQueue& q = hop->inputs_[in];
    const std::uint32_t a = q.front().seq;
    const auto n = static_cast<std::uint32_t>(q.size());
    const std::uint32_t virtual_pops = total - a - n;
    hop->start_express(in, total - n, n, now + 1 + virtual_pops,
                       virtual_pops);
  }
  ni.virtual_left_ = total - p.sent_flits;
  ++express_worms_;
  return ExpressCheck::kInstalled;
}

void Mesh::materialize_express() {
  if (!express_ok_) return;
  express_ok_ = false;
  express_candidates_.clear();
  for (auto& r : routers_) r->materialize_express(last_tick_);
  for (auto& ni : nis_) ni->virtual_left_ = 0;
}

Cycle Mesh::next_wake(Cycle now) const {
  const Cycle next = next_due(ni_busy_, nis_, now, kNeverWake);
  if (next <= now + 1) return next;
  return next_due(router_busy_, routers_, now, next);
}

int Mesh::distance(EngineId a, EngineId b) const {
  const int ax = a.value % config_.k, ay = a.value / config_.k;
  const int bx = b.value % config_.k, by = b.value / config_.k;
  return std::abs(ax - bx) + std::abs(ay - by);
}

std::uint64_t Mesh::total_flits_routed() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r->flits_routed();
  return total;
}

}  // namespace panic::noc
