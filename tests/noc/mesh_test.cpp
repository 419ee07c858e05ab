#include "noc/mesh.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace panic::noc {
namespace {

MessagePtr packet_of_size(std::size_t bytes) {
  auto msg = make_message();
  msg->data.resize(bytes);
  return msg;
}

TEST(Mesh, TopologyWiring) {
  Simulator sim;
  MeshConfig cfg;
  cfg.k = 4;
  Mesh mesh(cfg, sim);
  EXPECT_EQ(mesh.tiles(), 16);
  EXPECT_EQ(mesh.tile_id(3, 2).value, 11);
  EXPECT_EQ(mesh.router(mesh.tile_id(3, 2)).x(), 3);
  EXPECT_EQ(mesh.router(mesh.tile_id(3, 2)).y(), 2);
  EXPECT_EQ(mesh.distance(mesh.tile_id(0, 0), mesh.tile_id(3, 3)), 6);
  EXPECT_EQ(mesh.distance(mesh.tile_id(2, 1), mesh.tile_id(2, 1)), 0);
}

// Property: the network is lossless — under sustained random traffic with
// backpressure, every injected message is eventually delivered.
TEST(Mesh, LosslessUnderRandomTraffic) {
  Simulator sim;
  MeshConfig cfg;
  cfg.k = 4;
  cfg.channel_bits = 128;
  Mesh mesh(cfg, sim);
  Rng rng(1234);

  const int kMessages = 400;
  int injected = 0;
  std::uint64_t received = 0;

  const bool done = sim.run_until(
      [&] {
        // Each tile injects to a uniformly random destination when it can.
        for (int t = 0; t < mesh.tiles() && injected < kMessages; ++t) {
          const EngineId src{static_cast<std::uint16_t>(t)};
          if (!mesh.ni(src).can_inject()) continue;
          const EngineId dst{static_cast<std::uint16_t>(
              rng.uniform_int(0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
          mesh.ni(src).inject(packet_of_size(64), dst, sim.now());
          ++injected;
        }
        received = 0;
        for (int t = 0; t < mesh.tiles(); ++t) {
          const EngineId tile{static_cast<std::uint16_t>(t)};
          received += mesh.ni(tile).messages_received();
          // Drain so ejection never backpressures.
          while (mesh.ni(tile).try_receive(sim.now()) != nullptr) {
          }
        }
        return injected == kMessages && received == kMessages;
      },
      200000);
  EXPECT_TRUE(done) << "injected=" << injected << " received=" << received;
}

// Property: hop counts recorded on messages equal the Manhattan distance
// (XY routing is minimal).
TEST(Mesh, XyRoutingIsMinimal) {
  Simulator sim;
  MeshConfig cfg;
  cfg.k = 5;
  Mesh mesh(cfg, sim);
  Rng rng(99);

  for (int trial = 0; trial < 20; ++trial) {
    const EngineId src{static_cast<std::uint16_t>(
        rng.uniform_int(0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
    const EngineId dst{static_cast<std::uint16_t>(
        rng.uniform_int(0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
    mesh.ni(src).inject(packet_of_size(16), dst, sim.now());
    MessagePtr got;
    const bool done = sim.run_until(
        [&] {
          got = mesh.ni(dst).try_receive(sim.now());
          return got != nullptr;
        },
        5000);
    ASSERT_TRUE(done);
    // The tail flit traverses distance(src,dst) + 1 routers (it is counted
    // at each router it passes through, including source and destination).
    EXPECT_EQ(static_cast<int>(got->noc_hops),
              mesh.distance(src, dst) + 1)
        << "src=" << src.value << " dst=" << dst.value;
  }
}

// Property: saturation throughput of uniform random traffic lands within
// the analytical envelope — below the capacity bound 4·b·k, above 35% of
// it (single-VC wormhole meshes typically reach 40-70% of the ideal).
TEST(Mesh, SaturationThroughputWithinAnalyticalEnvelope) {
  Simulator sim;
  MeshConfig cfg;
  cfg.k = 4;
  cfg.channel_bits = 64;
  cfg.buffer_flits = 8;
  Mesh mesh(cfg, sim);
  Rng rng(7);

  const std::size_t kPayload = 64;
  std::uint64_t delivered_bits = 0;

  const Cycles kWarmup = 2000;
  const Cycles kMeasure = 20000;

  auto drive = [&](bool measuring) {
    for (int t = 0; t < mesh.tiles(); ++t) {
      const EngineId src{static_cast<std::uint16_t>(t)};
      while (mesh.ni(src).can_inject()) {
        EngineId dst;
        do {
          dst = EngineId{static_cast<std::uint16_t>(rng.uniform_int(
              0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
        } while (dst.value == src.value);
        mesh.ni(src).inject(packet_of_size(kPayload), dst, sim.now());
      }
    }
    for (int t = 0; t < mesh.tiles(); ++t) {
      const EngineId tile{static_cast<std::uint16_t>(t)};
      while (auto msg = mesh.ni(tile).try_receive(sim.now())) {
        if (measuring) delivered_bits += msg->wire_size() * 8;
      }
    }
  };

  for (Cycle c = 0; c < kWarmup; ++c) {
    drive(false);
    sim.step();
  }
  for (Cycle c = 0; c < kMeasure; ++c) {
    drive(true);
    sim.step();
  }

  const double bits_per_cycle =
      static_cast<double>(delivered_bits) / static_cast<double>(kMeasure);
  const double capacity_bits_per_cycle = 4.0 * cfg.channel_bits * cfg.k;
  EXPECT_LT(bits_per_cycle, capacity_bits_per_cycle);
  EXPECT_GT(bits_per_cycle, 0.35 * capacity_bits_per_cycle)
      << "delivered " << bits_per_cycle << " bits/cycle vs capacity "
      << capacity_bits_per_cycle;
}

// Larger meshes deliver more aggregate throughput (multipathing scales
// with topology size, §3.1.2).
TEST(Mesh, ThroughputScalesWithMeshSize) {
  auto measure = [](int k) {
    Simulator sim;
    MeshConfig cfg;
    cfg.k = k;
    cfg.channel_bits = 64;
    Mesh mesh(cfg, sim);
    Rng rng(13);
    std::uint64_t delivered = 0;
    for (Cycle c = 0; c < 15000; ++c) {
      for (int t = 0; t < mesh.tiles(); ++t) {
        const EngineId src{static_cast<std::uint16_t>(t)};
        while (mesh.ni(src).can_inject()) {
          const EngineId dst{static_cast<std::uint16_t>(rng.uniform_int(
              0, static_cast<std::uint64_t>(mesh.tiles() - 1)))};
          mesh.ni(src).inject(packet_of_size(64), dst, sim.now());
        }
        while (auto msg = mesh.ni(src).try_receive(sim.now())) {
          if (c > 3000) ++delivered;
        }
      }
      sim.step();
    }
    return delivered;
  };
  const auto small = measure(3);
  const auto large = measure(6);
  EXPECT_GT(large, small * 3 / 2);
}

/// Ticks every cycle, so the kernel executes (never fast-forwards) every
/// cycle.
class Clock : public Component {
 public:
  Clock() : Component("clock") {}
  void tick(Cycle) override {}
};

// An idle mesh costs nothing per cycle: the Mesh parks after its first
// tick (no NI or router is busy), so it is never ticked and the credit
// flush never runs — both when the kernel fast-forwards and when
// something else keeps every cycle executing.
TEST(Mesh, IdleMeshDoesNoPerCycleWork) {
  for (const bool clocked : {false, true}) {
    Simulator sim(Frequency::megahertz(500), SimMode::kEventDriven);
    MeshConfig cfg;
    cfg.k = 16;
    Mesh mesh(cfg, sim);
    Clock clock;
    if (clocked) sim.add(&clock);
    sim.run(10);  // settle: the Mesh ticks once, then parks

    constexpr Cycles kCycles = 100000;
    const std::uint64_t ticks0 = sim.component_ticks();
    const std::uint64_t ff0 = sim.fast_forwarded_cycles();
    sim.run(kCycles);
    const std::uint64_t ticks = sim.component_ticks() - ticks0;
    EXPECT_EQ(ticks, clocked ? kCycles : 0u) << "clocked=" << clocked;
    // run() always executes its first cycle before fast-forwarding.
    EXPECT_EQ(sim.fast_forwarded_cycles() - ff0,
              clocked ? 0u : kCycles - 1)
        << "clocked=" << clocked;
    EXPECT_EQ(mesh.credit_flushes(), 0u) << "clocked=" << clocked;
    EXPECT_EQ(sim.snapshot().counter("noc.credit_flushes"), 0u);
  }
}

/// Cross traffic on a k x k mesh: every `period` cycles each tile injects
/// one message to the tile mirrored through the mesh centre (so flows
/// cross in the middle), and every tile drains its NI each cycle.
/// Always active, so it acts on the same cycles in both kernels.
class CrossTraffic : public Component {
 public:
  CrossTraffic(Mesh& mesh, Cycles period, std::size_t bytes)
      : Component("cross"), mesh_(mesh), period_(period), bytes_(bytes) {}
  void tick(Cycle now) override {
    const int tiles = mesh_.tiles();
    for (int t = 0; t < tiles; ++t) {
      NetworkInterface& ni = mesh_.ni(EngineId{static_cast<std::uint16_t>(t)});
      if (now % period_ == 0 && ni.can_inject()) {
        auto msg = make_message();
        msg->data.resize(bytes_ + static_cast<std::size_t>(t) * 8);
        ni.inject(std::move(msg),
                  EngineId{static_cast<std::uint16_t>(tiles - 1 - t)}, now);
      }
      while (auto msg = ni.try_receive(now)) {
        msg->set_fate(MessageFate::kConsumed);
      }
    }
  }

 private:
  Mesh& mesh_;
  Cycles period_;
  std::size_t bytes_;
};

/// Per-router and per-NI counters after faulted cross traffic.
std::vector<std::uint64_t> faulted_cross_traffic_counters(SimMode mode) {
  Simulator sim(Frequency::megahertz(500), mode);
  MeshConfig cfg;
  cfg.k = 4;
  cfg.channel_bits = 64;
  Mesh mesh(cfg, sim);
  CrossTraffic traffic(mesh, 40, 64);
  sim.add(&traffic);
  // Flaky links on the centre routers' inputs (every port), and a credit
  // leak on two mesh inputs mid-run: flits sit in FIFOs behind delayed
  // heads and upstream outputs stall on missing credits.
  mesh.router(mesh.tile_id(1, 1)).fault_link(-1, 0.3, 17, 30000, 11);
  mesh.router(mesh.tile_id(2, 2)).fault_link(-1, 0.5, 5, 30000, 12);
  mesh.router(mesh.tile_id(2, 1)).fault_link(
      static_cast<int>(Direction::kWest), 0.2, 60, 20000, 13);
  sim.schedule_at(5000, [&] {
    mesh.router(mesh.tile_id(1, 2))
        .fault_leak_credits(static_cast<int>(Direction::kNorth), 3);
    mesh.router(mesh.tile_id(2, 1))
        .fault_leak_credits(static_cast<int>(Direction::kEast), 2);
  });
  sim.run(40000);

  std::vector<std::uint64_t> counters;
  for (int t = 0; t < mesh.tiles(); ++t) {
    const EngineId tile{static_cast<std::uint16_t>(t)};
    const Router& r = mesh.router(tile);
    counters.insert(counters.end(), {r.flits_routed(), r.stall_cycles(),
                                     r.flits_delayed()});
    const NetworkInterface& ni = mesh.ni(tile);
    counters.insert(counters.end(), {ni.messages_sent(),
                                     ni.messages_received(), ni.flits_sent()});
  }
  counters.push_back(mesh.credit_flushes());
  return counters;
}

// The busy sets must never skip a router or NI with work: under flaky
// delays (heads that become routable later than their arrival) and
// leaked credits (heads that stall on a full downstream), the event
// kernel's Mesh — ticking only busy elements, parking when none is due —
// must reproduce the dense kernel, which ticks every router and NI every
// cycle, counter for counter.
TEST(Mesh, FaultedCrossTrafficIsIdenticalDenseVsEvent) {
  const auto dense = faulted_cross_traffic_counters(SimMode::kStrictTick);
  const auto event = faulted_cross_traffic_counters(SimMode::kEventDriven);
  EXPECT_EQ(dense, event);

  // The faults bit: flits were delayed and heads stalled somewhere.
  std::uint64_t delayed = 0, stalls = 0, received = 0;
  for (std::size_t t = 0; t < 16; ++t) {
    stalls += dense[t * 6 + 1];
    delayed += dense[t * 6 + 2];
    received += dense[t * 6 + 4];
  }
  EXPECT_GT(delayed, 100u);
  EXPECT_GT(stalls, 100u);
  EXPECT_GT(received, 1000u);
}

struct DelayedRun {
  Cycle delivered_at = 0;
  std::uint64_t fast_forwarded = 0;
  std::uint64_t stall_cycles = 0;
};

/// One message from tile (0,0) to (2,0) across a link into (1,0) that
/// delays every flit by 500 cycles.  With `bytes` of payload on
/// `channel_bits` links it is a few flits (only delayed flits in flight)
/// or enough to fill the delayed input, so (0,0)'s head stalls on credits
/// behind it.
DelayedRun delayed_delivery(SimMode mode, std::uint32_t channel_bits,
                            std::size_t bytes) {
  Simulator sim(Frequency::megahertz(500), mode);
  MeshConfig cfg;
  cfg.k = 3;
  cfg.channel_bits = channel_bits;
  Mesh mesh(cfg, sim);
  const EngineId src = mesh.tile_id(0, 0);
  const EngineId dst = mesh.tile_id(2, 0);
  mesh.router(mesh.tile_id(1, 0))
      .fault_link(static_cast<int>(Direction::kWest), 1.0, 500, 1000000, 5);
  mesh.ni(src).inject(packet_of_size(bytes), dst, sim.now());
  const bool done = sim.run_until(
      [&] { return mesh.ni(dst).messages_received() == 1; }, 5000);
  EXPECT_TRUE(done);
  return {sim.now(), sim.fast_forwarded_cycles(),
          mesh.router(src).stall_cycles()};
}

// With only delayed flits in flight, nothing in the mesh is due before
// their ready cycle: the Mesh reports that cycle as its next wake, the
// event kernel fast-forwards to it, and the message lands on the same
// cycle as under the dense kernel.  When the delayed input is full
// instead, the upstream head stalls on credits: a stalled head is due
// every cycle, so the event kernel keeps ticking and counts every stall
// cycle the dense kernel counts.
TEST(Mesh, DelayedFlitsOnlyFastForwardToTheirReadyCycle) {
  const DelayedRun dense = delayed_delivery(SimMode::kStrictTick, 512, 64);
  const DelayedRun event = delayed_delivery(SimMode::kEventDriven, 512, 64);
  EXPECT_EQ(dense.delivered_at, event.delivered_at);
  EXPECT_GT(dense.delivered_at, 500u);
  EXPECT_EQ(dense.fast_forwarded, 0u);
  EXPECT_GT(event.fast_forwarded, 450u);
  EXPECT_EQ(event.stall_cycles, 0u);

  const DelayedRun dense_stall =
      delayed_delivery(SimMode::kStrictTick, 64, 256);
  const DelayedRun event_stall =
      delayed_delivery(SimMode::kEventDriven, 64, 256);
  EXPECT_EQ(dense_stall.delivered_at, event_stall.delivered_at);
  EXPECT_GT(dense_stall.stall_cycles, 400u);
  EXPECT_EQ(dense_stall.stall_cycles, event_stall.stall_cycles);
}

// A credit leak larger than what the upstream holds becomes debt.  The
// debt is repaid only out of staged returns — the flush folds an output
// only after a downstream pop logged it — and every flit popped off a
// mesh input is folded exactly once.
TEST(Mesh, LeakDebtIsRepaidOnlyFromStagedReturns) {
  Simulator sim(Frequency::megahertz(500), SimMode::kEventDriven);
  MeshConfig cfg;
  cfg.k = 3;
  cfg.channel_bits = 64;
  Mesh mesh(cfg, sim);
  const EngineId src = mesh.tile_id(0, 0);
  const EngineId mid = mesh.tile_id(1, 0);
  const EngineId dst = mesh.tile_id(2, 0);
  Router& up = mesh.router(src);
  const std::uint32_t depth = up.credits(Direction::kEast);
  ASSERT_EQ(depth, cfg.buffer_flits);

  // mid's long message locks mid's East output first, so src's flits back
  // up in mid's West input until src holds no credits toward it.
  mesh.ni(mid).inject(packet_of_size(1024), dst, sim.now());
  mesh.ni(src).inject(packet_of_size(256), dst, sim.now());
  for (int i = 0; i < 1000 && up.credits(Direction::kEast) != 0; ++i) {
    sim.step();
  }
  ASSERT_EQ(up.credits(Direction::kEast), 0u);
  constexpr std::uint32_t kLeak = 3;
  mesh.router(mid).fault_leak_credits(static_cast<int>(Direction::kWest),
                                      kLeak);

  // Blocked: no pops, so nothing is staged and the debt stays put.
  const std::uint64_t flushes0 = mesh.credit_flushes();
  sim.run(20);
  EXPECT_EQ(up.credits(Direction::kEast), 0u);

  int received = 0;
  sim.run_until(
      [&] {
        while (mesh.ni(dst).try_receive(sim.now()) != nullptr) ++received;
        return received == 2;
      },
      10000);
  ASSERT_EQ(received, 2);
  sim.run(100);  // drain the last returns
  // The first kLeak returns went to the debt: the link ends kLeak short.
  EXPECT_EQ(up.credits(Direction::kEast), depth - kLeak);
  EXPECT_GT(mesh.credit_flushes(), flushes0);
  // One fold per flit popped off a mesh input: every routed flit except
  // the ones the NIs injected into local inputs.
  EXPECT_EQ(mesh.credit_flushes(),
            mesh.total_flits_routed() - mesh.ni(src).flits_sent() -
                mesh.ni(mid).flits_sent());
}

// --- Express worms (mesh.h) -------------------------------------------

/// A message one ScriptedTraffic injects: `bytes` from `src` to `dst`,
/// first offered at cycle `at` (and every cycle after while the NI is
/// full).
struct Injection {
  Cycle at;
  EngineId src;
  EngineId dst;
  std::size_t bytes;
};

/// Injects a fixed script of messages, drains every NI each cycle, and
/// records a per-cycle fingerprint of every NoC counter and credit.
/// Always active and registered after the Mesh, so it observes the state
/// at the end of each cycle's Mesh tick in both kernels.
class ScriptedTraffic : public Component {
 public:
  ScriptedTraffic(Mesh& mesh, std::vector<Injection> script)
      : Component("script"), mesh_(mesh), script_(std::move(script)) {}

  void tick(Cycle now) override {
    while (next_ < script_.size() && script_[next_].at <= now) {
      const Injection& in = script_[next_];
      NetworkInterface& ni = mesh_.ni(in.src);
      if (!ni.can_inject()) break;
      ni.inject(packet_of_size(in.bytes), in.dst, now);
      ++next_;
    }
    std::uint64_t fingerprint[6] = {};
    for (int t = 0; t < mesh_.tiles(); ++t) {
      const EngineId tile{static_cast<std::uint16_t>(t)};
      NetworkInterface& ni = mesh_.ni(tile);
      while (auto msg = ni.try_receive(now)) {
        received_at_.push_back(now);
        msg->set_fate(MessageFate::kConsumed);
      }
      const Router& r = mesh_.router(tile);
      fingerprint[0] += r.flits_routed();
      fingerprint[1] += r.stall_cycles();
      for (int d = 0; d < 4; ++d) {
        fingerprint[2] += r.credits(static_cast<Direction>(d)) * (t * 4 + d + 1);
      }
      fingerprint[3] += ni.flits_sent();
      fingerprint[4] += ni.messages_sent() + (ni.messages_received() << 20);
    }
    fingerprint[5] = mesh_.credit_flushes();
    per_cycle_.insert(per_cycle_.end(), std::begin(fingerprint),
                      std::end(fingerprint));
  }

  bool done() const {
    return next_ == script_.size() && received_at_.size() == script_.size();
  }
  const std::vector<Cycle>& received_at() const { return received_at_; }
  const std::vector<std::uint64_t>& per_cycle() const { return per_cycle_; }

 private:
  Mesh& mesh_;
  std::vector<Injection> script_;
  std::size_t next_ = 0;
  std::vector<Cycle> received_at_;
  std::vector<std::uint64_t> per_cycle_;
};

struct WormRun {
  std::vector<std::uint64_t> counters;  ///< final per-router/NI counters
  std::vector<std::uint64_t> per_cycle;
  std::vector<Cycle> received_at;
  std::vector<std::string> trace;  ///< message ids by first appearance
  std::uint64_t express = 0;
  std::uint64_t express_at_fault = 0;
  Cycle final_cycle = 0;
};

/// Runs `script` on a mesh built from `cfg` under `mode` until every
/// message is received; `fault`, if set, runs at cycle `fault_at` (after
/// the express count is sampled there).
WormRun run_worms(SimMode mode, const MeshConfig& cfg,
                  std::vector<Injection> script,
                  const std::function<void(Mesh&)>& fault = {},
                  Cycle fault_at = 0) {
  Simulator sim(Frequency::megahertz(500), mode);
  Mesh mesh(cfg, sim);
  ScriptedTraffic traffic(mesh, std::move(script));
  sim.add(&traffic);
  sim.telemetry().tracer().enable();
  WormRun out;
  if (fault) {
    sim.schedule_at(fault_at, [&] {
      out.express_at_fault = mesh.express_worms();
      fault(mesh);
    });
  }
  EXPECT_TRUE(sim.run_until([&] { return traffic.done(); }, 200000));
  sim.run(50);  // drain the last credit returns
  out.final_cycle = sim.now();
  for (int t = 0; t < mesh.tiles(); ++t) {
    const EngineId tile{static_cast<std::uint16_t>(t)};
    const Router& r = mesh.router(tile);
    out.counters.insert(out.counters.end(),
                        {r.flits_routed(), r.stall_cycles(),
                         r.flits_delayed(), r.credit_violations()});
    for (int d = 0; d < 4; ++d) {
      out.counters.push_back(r.credits(static_cast<Direction>(d)));
    }
    const NetworkInterface& ni = mesh.ni(tile);
    out.counters.insert(out.counters.end(),
                        {ni.messages_sent(), ni.messages_received(),
                         ni.flits_sent()});
  }
  out.counters.push_back(mesh.credit_flushes());
  out.per_cycle = traffic.per_cycle();
  out.received_at = traffic.received_at();
  const auto& tracer = sim.telemetry().tracer();
  std::map<std::uint64_t, std::size_t> ids;
  for (const auto& e : tracer.events()) {
    const auto [it, _] = ids.emplace(e.msg.value, ids.size());
    out.trace.push_back(std::to_string(e.cycle) + " " +
                        tracer.name_of(e.where) + " " +
                        std::to_string(static_cast<int>(e.kind)) + " " +
                        std::to_string(e.arg) + " #" +
                        std::to_string(it->second));
  }
  out.express = mesh.express_worms();
  return out;
}

/// Runs both kernels and checks the event kernel — the only one that
/// expresses — reproduces the dense one on every counter, every credit,
/// every cycle's fingerprint, every delivery cycle and every trace event.
/// Returns the event run.
WormRun expect_dense_equals_event(const MeshConfig& cfg,
                                  const std::vector<Injection>& script,
                                  const std::function<void(Mesh&)>& fault = {},
                                  Cycle fault_at = 0) {
  const WormRun dense =
      run_worms(SimMode::kStrictTick, cfg, script, fault, fault_at);
  WormRun event =
      run_worms(SimMode::kEventDriven, cfg, script, fault, fault_at);
  EXPECT_EQ(dense.express, 0u);  // dense stays the flit-level reference
  EXPECT_EQ(dense.counters, event.counters);
  EXPECT_EQ(dense.per_cycle, event.per_cycle);
  EXPECT_EQ(dense.received_at, event.received_at);
  EXPECT_EQ(dense.trace, event.trace);
  EXPECT_EQ(dense.final_cycle, event.final_cycle);
  EXPECT_EQ(event.received_at.size(), script.size());
  return event;
}

MeshConfig worm_mesh(int k, std::uint32_t channel_bits,
                     RoutingAlgo routing = RoutingAlgo::kXY) {
  MeshConfig cfg;
  cfg.k = k;
  cfg.channel_bits = channel_bits;
  cfg.routing = routing;
  return cfg;
}

/// `count` back-to-back messages of `bytes` from `src` to `dst`.
void add_stream(std::vector<Injection>* script, Cycle at, EngineId src,
                EngineId dst, std::size_t bytes, int count) {
  for (int i = 0; i < count; ++i) script->push_back({at, src, dst, bytes});
}

// Link faults armed while worms stream: the Mesh first materializes every
// express worm back into real flits, so the flaky link's delays and the
// leaked credits act on exactly the flits the dense kernel holds.
TEST(Mesh, ExpressWormsMaterializeWhenLinkFaultsArmMidStream) {
  const MeshConfig cfg = worm_mesh(4, 64);
  std::vector<Injection> script;
  const auto tile = [&](int x, int y) {
    return EngineId{static_cast<std::uint16_t>(y * cfg.k + x)};
  };
  // Hairpins: (0,0) -> (3,1) and back, 1500-byte frames (~190 flits).
  add_stream(&script, 0, tile(0, 0), tile(3, 1), 1500, 6);
  add_stream(&script, 0, tile(3, 1), tile(0, 0), 1500, 6);
  add_stream(&script, 0, tile(0, 2), tile(3, 2), 1500, 6);
  const auto fault = [&](Mesh& mesh) {
    mesh.router(tile(2, 0)).fault_link(static_cast<int>(Direction::kWest),
                                       0.3, 4, 2000, 21);
    mesh.router(tile(1, 1)).fault_link(static_cast<int>(Direction::kEast),
                                       0.2, 9, 2000, 22);
    mesh.router(tile(2, 2)).fault_leak_credits(
        static_cast<int>(Direction::kWest), 3);
  };
  const WormRun event = expect_dense_equals_event(cfg, script, fault, 500);
  EXPECT_GT(event.express_at_fault, 0u);  // worms were express mid-stream
  EXPECT_EQ(event.express, event.express_at_fault);  // and never again
}

// Two sources into one destination: one head waits for the other worm's
// tail, its flits back up along its path, and the worm goes express with
// backlogged hops (more than one flit per path input).
TEST(Mesh, ExpressWormsWithBackloggedHopsMatchDense) {
  const MeshConfig cfg = worm_mesh(4, 64);
  const auto tile = [&](int x, int y) {
    return EngineId{static_cast<std::uint16_t>(y * cfg.k + x)};
  };
  std::vector<Injection> script;
  add_stream(&script, 0, tile(0, 0), tile(3, 3), 1024, 5);
  add_stream(&script, 3, tile(3, 0), tile(3, 3), 1024, 5);
  add_stream(&script, 40, tile(0, 3), tile(3, 3), 700, 4);
  const WormRun event = expect_dense_equals_event(cfg, script);
  EXPECT_GE(event.express, 10u);
}

// West-first adaptive routing: a head may pick among several outputs, and
// a locked worm's output is not free for the others.
TEST(Mesh, ExpressWormsUnderWestFirstRoutingMatchDense) {
  const MeshConfig cfg = worm_mesh(4, 64, RoutingAlgo::kWestFirst);
  const auto tile = [&](int x, int y) {
    return EngineId{static_cast<std::uint16_t>(y * cfg.k + x)};
  };
  std::vector<Injection> script;
  add_stream(&script, 0, tile(0, 0), tile(3, 3), 800, 4);
  add_stream(&script, 0, tile(1, 0), tile(3, 2), 800, 4);
  add_stream(&script, 0, tile(3, 3), tile(0, 1), 800, 4);
  add_stream(&script, 5, tile(0, 3), tile(2, 0), 800, 4);
  const WormRun event = expect_dense_equals_event(cfg, script);
  EXPECT_GT(event.express, 0u);
}

// A 1-flit message is head and tail at once, and a worm shorter than its
// path has sent its tail before its head is ejected: neither can stream,
// so neither goes express.
TEST(Mesh, SingleFlitAndShortWormsNeverGoExpress) {
  const auto tile = [](int x, int y) {
    return EngineId{static_cast<std::uint16_t>(y * 4 + x)};
  };
  std::vector<Injection> script;
  add_stream(&script, 0, tile(0, 0), tile(3, 3), 8, 20);
  add_stream(&script, 0, tile(3, 0), tile(0, 3), 8, 20);
  EXPECT_EQ(expect_dense_equals_event(worm_mesh(4, 512), script).express, 0u);

  // 64 wire bytes on 256-bit links: a 3-flit worm over 7 hops.
  script.clear();
  add_stream(&script, 0, tile(0, 0), tile(3, 3), 20, 10);
  add_stream(&script, 0, tile(3, 3), tile(0, 0), 20, 10);
  EXPECT_EQ(expect_dense_equals_event(worm_mesh(4, 256), script).express, 0u);
}

// A loopback message (source tile == destination tile) crosses one
// router, local input to local output, and goes express like any worm.
TEST(Mesh, LoopbackWormMatchesDense) {
  const auto tile = [](int x, int y) {
    return EngineId{static_cast<std::uint16_t>(y * 3 + x)};
  };
  std::vector<Injection> script;
  add_stream(&script, 0, tile(1, 1), tile(1, 1), 600, 3);
  add_stream(&script, 2, tile(0, 1), tile(1, 1), 300, 2);
  const WormRun event = expect_dense_equals_event(worm_mesh(3, 64), script);
  EXPECT_GT(event.express, 0u);
}

}  // namespace
}  // namespace panic::noc
