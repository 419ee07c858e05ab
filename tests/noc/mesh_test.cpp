#include "noc/mesh.h"

#include <gtest/gtest.h>

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
/// cycle and runs the end-of-cycle hooks each time.
class Clock : public Component {
 public:
  Clock() : Component("clock") {}
  void tick(Cycle) override {}
};

// An idle mesh costs nothing per cycle: its routers and NIs park after
// their first tick, and the credit flush has nothing logged to fold —
// both when the kernel fast-forwards and when something else keeps every
// cycle executing.
TEST(Mesh, IdleMeshDoesNoPerCycleWork) {
  for (const bool clocked : {false, true}) {
    Simulator sim(Frequency::megahertz(500), SimMode::kEventDriven);
    MeshConfig cfg;
    cfg.k = 16;
    Mesh mesh(cfg, sim);
    Clock clock;
    if (clocked) sim.add(&clock);
    sim.run(10);  // settle: every router and NI ticks once, then parks

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
}  // namespace
}  // namespace panic::noc
