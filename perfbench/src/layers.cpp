// Per-layer host-time costs, timed outside the kernel loop by calling each
// layer's public functions on the workload's own inputs.  Every timer runs
// a fixed amount of work five times and keeps the median, so one timer
// costs tens of milliseconds.
#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

#include "bench.h"
#include "core/program_factory.h"
#include "engines/chacha20.h"
#include "engines/ipsec_engine.h"
#include "engines/sched_queue.h"
#include "net/addr.h"
#include "net/message.h"
#include "net/packet.h"
#include "noc/mesh.h"
#include "noc/network_interface.h"
#include "rmt/flow_cache.h"
#include "rmt/pipeline.h"
#include "sim/simulator.h"
#include "workload/kvs_workload.h"

namespace perfbench {

using panic::Cycle;
using panic::scenario::WorkloadSpec;

namespace {

constexpr int kReps = 5;

template <typename Fn>
double median_of_reps(Fn&& once) {
  std::array<double, kReps> v{};
  for (double& x : v) x = once();
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

// --- sim: no-op components at the run's tick and wake rates. ---

class HotNoop : public panic::Component {
 public:
  HotNoop() : Component("hot") {}
  void tick(Cycle) override {}
};

/// Ticks once every `period` cycles at phase `phase`, parking in between
/// (the period exceeds the kernel's linger window, so every tick is a wake).
class PeriodicNoop : public panic::Component {
 public:
  PeriodicNoop(Cycle period, Cycle phase)
      : Component("periodic"), period_(period), phase_(phase % period) {}
  void tick(Cycle) override {}
  Cycle next_wake(Cycle now) const override {
    return now + period_ - ((now + period_ - phase_) % period_);
  }

 private:
  Cycle period_;
  Cycle phase_;
};

double time_sim_tick(double ticks_per_cycle, double wakeups_per_cycle) {
  constexpr Cycle kPeriod = 32;
  constexpr panic::Cycles kCycles = 200000;
  const int periodic = static_cast<int>(
      std::min(100000.0, wakeups_per_cycle * kPeriod + 0.5));
  int hot = static_cast<int>(
      std::max(0.0, ticks_per_cycle - wakeups_per_cycle) + 0.5);
  if (hot == 0 && periodic == 0) hot = 1;
  return median_of_reps([&] {
    panic::Simulator sim;
    std::vector<std::unique_ptr<panic::Component>> comps;
    for (int i = 0; i < hot; ++i) comps.push_back(std::make_unique<HotNoop>());
    for (int i = 0; i < periodic; ++i) {
      comps.push_back(std::make_unique<PeriodicNoop>(kPeriod, i));
    }
    for (auto& c : comps) sim.add(c.get());
    sim.run(1000);
    const std::uint64_t t0 = sim.component_ticks();
    const double s = now_s();
    sim.run(kCycles);
    const double wall = now_s() - s;
    const std::uint64_t ticks = sim.component_ticks() - t0;
    return ticks == 0 ? 0.0 : wall * 1e9 / static_cast<double>(ticks);
  });
}

// --- noc: mesh + NI replay of the run's traffic matrix. ---

/// Injects messages at each source NI's measured rate and size, to
/// destinations drawn in proportion to each NI's measured receive rate,
/// and drains every destination NI each cycle.
class NocReplay : public panic::Component {
 public:
  NocReplay(panic::noc::Mesh& mesh, const LayerInputs& in)
      : Component("noc_replay"), mesh_(mesh), rng_(12345) {
    const int tiles = mesh.tiles();
    const std::size_t chan_bytes = mesh.channel_bits() / 8;
    for (int t = 0; t < tiles; ++t) {
      if (t < static_cast<int>(in.ni_recv_rate.size()) &&
          in.ni_recv_rate[t] > 0.0) {
        dsts_.push_back(t);
        dst_cdf_.push_back((dst_cdf_.empty() ? 0.0 : dst_cdf_.back()) +
                           in.ni_recv_rate[t]);
      }
    }
    for (int t = 0; t < tiles; ++t) {
      if (t >= static_cast<int>(in.ni_send_rate.size()) ||
          in.ni_send_rate[t] <= 0.0 || dsts_.empty()) {
        continue;
      }
      const double flits = std::max(1.0, in.ni_flits_per_msg[t]);
      srcs_.push_back(Source{t, in.ni_send_rate[t], 0.0,
                             static_cast<std::size_t>(flits) * chan_bytes -
                                 chan_bytes / 2});
    }
  }

  void tick(Cycle now) override {
    for (Source& s : srcs_) {
      s.credit = std::min(s.credit + s.rate, 4.0);
      auto& ni = mesh_.ni(panic::EngineId{static_cast<std::uint16_t>(s.tile)});
      while (s.credit >= 1.0 && ni.can_inject()) {
        s.credit -= 1.0;
        const int dst = pick_dst(s.tile);
        if (dst < 0) break;
        auto msg = panic::make_message();
        msg->data.resize(s.bytes);
        ni.inject(std::move(msg),
                  panic::EngineId{static_cast<std::uint16_t>(dst)}, now);
      }
    }
    for (int d : dsts_) {
      auto& ni = mesh_.ni(panic::EngineId{static_cast<std::uint16_t>(d)});
      while (auto msg = ni.try_receive(now)) {
        msg->set_fate(panic::MessageFate::kConsumed);
      }
    }
  }

 private:
  struct Source {
    int tile;
    double rate;
    double credit;
    std::size_t bytes;
  };
  int pick_dst(int src) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const double u = std::uniform_real_distribution<double>(
          0.0, dst_cdf_.back())(rng_);
      const auto it = std::upper_bound(dst_cdf_.begin(), dst_cdf_.end(), u);
      const int d = dsts_[std::min<std::size_t>(it - dst_cdf_.begin(),
                                                dsts_.size() - 1)];
      if (d != src) return d;
    }
    return -1;
  }

  panic::noc::Mesh& mesh_;
  std::mt19937_64 rng_;
  std::vector<Source> srcs_;
  std::vector<int> dsts_;
  std::vector<double> dst_cdf_;
};

constexpr panic::Cycles kNocCycles = 100000;

/// Wall seconds of `kNocCycles` cycles of a mesh shaped like the run's:
/// idle (kept executing by one always-active no-op, so nothing
/// fast-forwards), or carrying the replayed traffic (`flits` receives the
/// flits routed).  Without a mesh, the bare kernel cost of those cycles.
double noc_window(const LayerInputs& in, bool mesh_on, bool traffic,
                  std::uint64_t* flits) {
  const auto& config = in.run->nic().mesh().config();
  panic::Simulator sim;
  std::unique_ptr<panic::noc::Mesh> mesh;
  std::unique_ptr<NocReplay> replay;
  if (mesh_on) mesh = std::make_unique<panic::noc::Mesh>(config, sim);
  if (traffic) replay = std::make_unique<NocReplay>(*mesh, in);
  HotNoop keep_awake;
  sim.add(&keep_awake);
  if (replay) sim.add(replay.get());
  sim.run(5000);
  const std::uint64_t f0 = mesh ? mesh->total_flits_routed() : 0;
  const double s = now_s();
  sim.run(kNocCycles);
  const double wall = now_s() - s;
  if (flits != nullptr) *flits = mesh->total_flits_routed() - f0;
  return wall;
}

/// Marginal ns per routed flit (traffic run minus the idle mesh) and ns
/// per idle router-cycle (idle mesh minus the bare kernel).
void time_noc(const LayerInputs& in, double* ns_per_flit,
              double* ns_per_idle_router_cycle) {
  std::uint64_t flits = 0;
  const double busy = median_of_reps(
      [&] { return noc_window(in, true, true, &flits); });
  const double idle =
      median_of_reps([&] { return noc_window(in, true, false, nullptr); });
  const double bare =
      median_of_reps([&] { return noc_window(in, false, false, nullptr); });
  const double routers = in.run->nic().mesh().tiles();
  *ns_per_flit =
      flits == 0 ? 0.0 : std::max(0.0, busy - idle) * 1e9 / flits;
  *ns_per_idle_router_cycle =
      std::max(0.0, idle - bare) * 1e9 / (kNocCycles * routers);
}

// --- workload frames: the scenario's own fillers and factories. ---

panic::Ipv4Addr addr_or(const std::string& text, panic::Ipv4Addr fallback) {
  if (text.empty()) return fallback;
  return panic::Ipv4Addr::parse(text).value_or(fallback);
}

/// One frame generator per workload line, built the way ScenarioRun
/// builds its sources.
struct FrameGen {
  const WorkloadSpec* spec = nullptr;
  panic::workload::FrameFactory factory;
  panic::workload::FrameFiller filler;
  std::vector<std::uint8_t> frame(panic::Rng& rng, std::uint64_t seq) const {
    if (filler) {
      std::vector<std::uint8_t> out;
      filler(rng, seq, out);
      return out;
    }
    return factory(rng, seq);
  }
};

FrameGen make_gen(const WorkloadSpec& w) {
  using Kind = WorkloadSpec::Kind;
  const panic::Ipv4Addr client = addr_or(
      w.src, panic::Ipv4Addr(10, static_cast<std::uint8_t>(w.tenant), 0, 2));
  const panic::Ipv4Addr server = addr_or(w.dst, panic::Ipv4Addr(10, 0, 0, 1));
  FrameGen g;
  g.spec = &w;
  switch (w.kind) {
    case Kind::kUdp:
      g.factory = panic::workload::make_udp_factory(client, server,
                                                    w.frame_bytes, w.dst_port,
                                                    w.flows);
      break;
    case Kind::kMinFrame:
      g.factory =
          panic::workload::make_min_frame_factory(client, server, w.flows);
      break;
    case Kind::kKvs: {
      panic::workload::KvsWorkloadConfig kvs;
      kvs.client = client;
      kvs.server = server;
      kvs.tenant = w.tenant;
      kvs.wan_fraction = w.wan_fraction;
      g.factory = panic::workload::make_kvs_factory(kvs);
      break;
    }
    case Kind::kEsp: {
      const std::uint16_t sport = w.src_port;
      const std::uint16_t dport = w.dst_port;
      const std::uint32_t spi = w.spi;
      g.factory = [client, server, sport, dport, spi](panic::Rng&,
                                                      std::uint64_t seq) {
        return panic::engines::IpsecEngine::encapsulate(
            panic::frames::min_udp(client, server, sport, dport), spi,
            static_cast<std::uint32_t>(seq + 1));
      };
      break;
    }
    case Kind::kUdpFill:
      g.filler = panic::workload::make_udp_filler(client, server,
                                                  w.frame_bytes, w.dst_port,
                                                  w.flows);
      break;
    case Kind::kMinFill:
      g.filler =
          panic::workload::make_min_frame_filler(client, server, w.flows);
      break;
  }
  return g;
}

struct MixedFrame {
  const WorkloadSpec* spec;
  std::vector<std::uint8_t> bytes;
};

/// `count` frames interleaved in proportion to the run's frame mix.
std::vector<MixedFrame> mixed_frames(const LayerInputs& in, std::size_t count) {
  const auto& ws = in.scenario->workloads;
  std::vector<FrameGen> gens;
  for (const auto& w : ws) gens.push_back(make_gen(w));
  double total = 0.0;
  for (double m : in.frame_mix) total += m;
  std::vector<double> credit(ws.size(), 0.0);
  std::vector<std::uint64_t> seq(ws.size(), 0);
  std::vector<panic::Rng> rngs;
  for (const auto& w : ws) rngs.emplace_back(w.seed);
  std::vector<MixedFrame> out;
  while (out.size() < count && total > 0.0) {
    for (std::size_t i = 0; i < ws.size() && out.size() < count; ++i) {
      credit[i] += in.frame_mix[i] / total;
      if (credit[i] >= 1.0) {
        credit[i] -= 1.0;
        out.push_back({&ws[i], gens[i].frame(rngs[i], seq[i]++)});
      }
    }
  }
  return out;
}

// --- rmt: Pipeline::process on the workload's frames. ---

double time_rmt_pass(const LayerInputs& in, bool cache) {
  const auto frames = mixed_frames(in, 4096);
  if (frames.empty()) return 0.0;
  auto& nic = in.run->nic();
  // The same program the NIC's RMT tiles run (default + p4lite stages).
  const std::shared_ptr<const panic::rmt::RmtProgram> program =
      panic::core::build_default_program(nic.config(), nic.topology());
  const auto& topo = nic.topology();
  constexpr int kPasses = 100000;
  auto load = [&](panic::Message& msg, const MixedFrame& f) {
    msg.reset_for_reuse();
    msg.data.assign(f.bytes.begin(), f.bytes.end());
    msg.tenant = panic::TenantId{f.spec->tenant};
    msg.ingress_port = topo.eth_ports[f.spec->port];
  };
  auto loop = [&](bool process) {
    panic::rmt::Pipeline pipeline(program);
    if (cache) {
      panic::rmt::FlowCacheConfig cfg;
      cfg.enabled = in.scenario->rmt_cache_enabled;
      cfg.sets = in.scenario->rmt_cache_sets;
      cfg.ways = in.scenario->rmt_cache_ways;
      pipeline.enable_flow_cache(cfg);
    }
    panic::Message msg;
    // One untimed pass over the frames warms the cache.
    for (const auto& f : frames) {
      load(msg, f);
      pipeline.process(msg);
    }
    const double s = now_s();
    for (int i = 0; i < kPasses; ++i) {
      load(msg, frames[i % frames.size()]);
      if (process) pipeline.process(msg);
    }
    return now_s() - s;
  };
  const double with = median_of_reps([&] { return loop(true); });
  const double base = median_of_reps([&] { return loop(false); });
  return std::max(0.0, with - base) * 1e9 / kPasses;
}

// --- engines: PIFO queue ops with the workload's SchedSpec; crypto. ---

double time_sched_op(const LayerInputs& in) {
  const auto& sc = *in.scenario;
  std::vector<std::uint16_t> tenants;
  for (const auto& w : sc.workloads) tenants.push_back(w.tenant);
  if (tenants.empty()) tenants.push_back(1);
  auto slack_of = [&](std::uint16_t t) {
    for (const auto& [tenant, slack] : sc.tenant_slacks) {
      if (tenant == t) return slack;
    }
    return sc.default_slack;
  };
  constexpr int kOps = 200000;
  constexpr int kDepth = 8;
  return median_of_reps([&] {
    panic::engines::SchedulerQueue q(sc.sched_policy,
                                     sc.engine_queue_capacity,
                                     sc.drop_policy);
    Cycle now = 0;
    for (int i = 0; i < kDepth; ++i) {
      auto msg = panic::make_message();
      msg->tenant = panic::TenantId{tenants[i % tenants.size()]};
      msg->slack = slack_of(msg->tenant.value);
      msg->flow = panic::FlowId{static_cast<std::uint32_t>(i)};
      q.try_enqueue(std::move(msg), now);
    }
    const double s = now_s();
    for (int i = 0; i < kOps; ++i) {
      auto msg = q.dequeue(now);
      ++now;
      q.try_enqueue(std::move(msg), now);
    }
    const double wall = now_s() - s;
    while (auto msg = q.dequeue(now)) {
      msg->set_fate(panic::MessageFate::kConsumed);
    }
    return wall * 1e9 / (2.0 * kOps);
  });
}

double time_crypto_byte(const LayerInputs& in, std::size_t* bytes_out) {
  std::size_t bytes = 0;
  for (const auto& f : mixed_frames(in, 64)) {
    if (f.spec->kind == WorkloadSpec::Kind::kEsp) {
      bytes = f.bytes.size();
      break;
    }
  }
  if (bytes == 0) bytes = 256;
  *bytes_out = bytes;
  std::vector<std::uint8_t> buf(bytes, 0x5a);
  const auto key = panic::engines::IpsecEngine::key_for_spi(0x2001);
  std::array<std::uint8_t, panic::engines::ChaCha20::kNonceBytes> nonce{};
  constexpr int kFrames = 20000;
  std::uint64_t sink = 0;
  const double ns = median_of_reps([&] {
    const double s = now_s();
    for (int i = 0; i < kFrames; ++i) {
      nonce[0] = static_cast<std::uint8_t>(i);
      panic::engines::ChaCha20 cipher(key, nonce);
      cipher.apply_inplace(buf);
      sink += panic::engines::auth_tag(buf, key);
    }
    return (now_s() - s) * 1e9 / (static_cast<double>(kFrames) * bytes);
  });
  if (sink == 1) buf[0] = 0;  // keep the work observable
  return ns;
}

// --- net: message allocation through the pool. ---

double time_message() {
  constexpr int kMessages = 500000;
  return median_of_reps([&] {
    const double s = now_s();
    for (int i = 0; i < kMessages; ++i) {
      auto msg = panic::make_message();
      msg->set_fate(panic::MessageFate::kConsumed);
    }
    return (now_s() - s) * 1e9 / kMessages;
  });
}

// --- workload: filler and factory calls, weighted by the frame mix. ---

double time_frames(const LayerInputs& in) {
  const auto& ws = in.scenario->workloads;
  double total = 0.0;
  double weighted = 0.0;
  constexpr int kFrames = 20000;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (in.frame_mix[i] <= 0.0) continue;
    const FrameGen g = make_gen(ws[i]);
    const double ns = median_of_reps([&] {
      panic::Rng rng(ws[i].seed);
      std::vector<std::uint8_t> out;
      std::size_t sink = 0;
      const double s = now_s();
      for (int k = 0; k < kFrames; ++k) {
        if (g.filler) {
          g.filler(rng, k, out);
          sink += out.size();
        } else {
          sink += g.factory(rng, k).size();
        }
      }
      const double wall = now_s() - s;
      return sink == 0 ? 0.0 : wall * 1e9 / kFrames;
    });
    weighted += ns * in.frame_mix[i];
    total += in.frame_mix[i];
  }
  return total > 0.0 ? weighted / total : 0.0;
}

}  // namespace

LayerCosts time_layers(const LayerInputs& in) {
  LayerCosts c;
  c.sim_ns_per_tick = time_sim_tick(in.ticks_per_cycle, in.wakeups_per_cycle);
  time_noc(in, &c.noc_ns_per_flit, &c.noc_ns_per_idle_router_cycle);
  c.rmt_ns_per_pass = time_rmt_pass(in, true);
  c.rmt_ns_per_miss = time_rmt_pass(in, false);
  c.sched_ns_per_op = time_sched_op(in);
  c.crypto_ns_per_byte = time_crypto_byte(in, &c.crypto_frame_bytes);
  c.net_ns_per_message = time_message();
  c.workload_ns_per_frame = time_frames(in);
  return c;
}

}  // namespace perfbench
