// Hot-path benchmark: wall-clock cost per simulated cycle for the RMT
// fast path under the dense and event kernels, compared within the same
// run (event/dense ratio), plus machine-independent work counters per
// measured cycle: component ticks (kernel.component_ticks) and router
// outputs folded by the NoC credit flush (noc.credit_flushes).
//
// Two scenarios, checked in as scenario files:
//   * bench_hotpath_saturated.scenario — continuous near-line-rate
//     overload, pool pre-warmed past the live high-watermark.  This is
//     the speedup measurement AND an allocation-free window.
//   * bench_hotpath_steady.scenario — constant-rate load the NIC can
//     sustain; after warmup the measured window must be miss-free.
//
// Every leg runs dense + event kernels (cross-checked: cycle-identical by
// contract), plus an event run with the flow cache disabled.  The cache-on
// and cache-off snapshots must be identical on every metric outside
// rmt.cache.* — the cache is a host-time optimization, never a semantic
// one.  The steady-state cache hit rate must be >= 90%, and the event
// kernel's ticks and credit flushes per cycle must stay under per-scenario
// ceilings; the bench exits nonzero if any gate fails.  It also counts the
// worms the event kernel's NoC sent express (noc/mesh.h) in the measured
// window, and fails if the saturated scenario expresses none.  Results go
// to stdout and, machine-readable, to BENCH_hotpath.json.  `--smoke`
// shrinks the horizons for CI.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/cli.h"
#include "net/message_pool.h"
#include "scenario/runner.h"

using namespace panic;

namespace {

// Steady-state flow-cache hit-rate floor (machine-independent gate).
constexpr double kMinHitRate = 0.90;

/// Work ceilings per measured cycle under the event kernel
/// (machine-independent gates), ~10% above the counts measured at the
/// full and --smoke horizons: saturated 4.26/4.14 ticks and 5.243/5.237
/// credit flushes, steady 1.42/1.43 ticks and 2.669/2.671 flushes.  With
/// each router and NI ticked as its own component the same legs made
/// 12.6 and 6.9 ticks per cycle; a flush over every router would be 16.
struct WorkCeiling {
  const char* scenario;
  double ticks_per_cycle;
  double credit_flushes_per_cycle;
};
constexpr WorkCeiling kCeilings[] = {
    {"hotpath_saturated", 4.7, 5.8},
    {"hotpath_steady_state", 1.6, 2.95},
};

/// Metrics allowed to differ between cache-on and cache-off runs:
/// kernel.* (tick/wakeup bookkeeping and process-wide pool gauges) and the
/// cache's own rmt.cache.* namespace.  Everything else must be identical.
bool excluded_from_cache_diff(const std::string& name) {
  return name.rfind("kernel.", 0) == 0 || name.rfind("rmt.cache.", 0) == 0;
}

struct RunResult {
  double wall_ms = 0.0;
  double ns_per_cycle = 0.0;
  // Work counters over the measured window, per simulated cycle.
  double ticks_per_cycle = 0.0;
  double credit_flushes_per_cycle = 0.0;
  // Worms sent express in the measured window (always 0 under dense).
  std::uint64_t express_worms = 0;
  // Cross-check between modes.
  std::uint64_t delivered = 0;
  std::uint64_t flits = 0;
  std::uint64_t generated = 0;
  // Message-pool deltas over the *measured* window (post-warmup).
  std::uint64_t pool_hit = 0;
  std::uint64_t pool_miss = 0;
  std::uint64_t bytes_reused = 0;
  std::uint64_t live_high_watermark = 0;
  // Flow-cache totals (zero when the cache is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  telemetry::MetricsSnapshot snapshot;
};

RunResult run_one(const scenario::Scenario& s, SimMode mode) {
  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);

  run.run_warmup();

  const auto before = run.sim().snapshot();
  const std::uint64_t express_before = run.nic().mesh().express_worms();
  const auto pool_before = MessagePool::instance().stats();
  const auto start = std::chrono::steady_clock::now();
  run.run_measure();
  const auto stop = std::chrono::steady_clock::now();
  const auto pool_after = MessagePool::instance().stats();

  RunResult r;
  r.snapshot = run.sim().snapshot();
  const auto& snap = r.snapshot;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  r.ns_per_cycle =
      r.wall_ms * 1e6 / static_cast<double>(s.budget_cycles);
  const auto per_cycle = [&](const char* counter) {
    return static_cast<double>(snap.counter(counter) -
                               before.counter(counter)) /
           static_cast<double>(s.budget_cycles);
  };
  r.ticks_per_cycle = per_cycle("kernel.component_ticks");
  r.credit_flushes_per_cycle = per_cycle("noc.credit_flushes");
  r.express_worms = run.nic().mesh().express_worms() - express_before;
  r.delivered = snap.counter("engine.dma.packets_to_host");
  r.flits = static_cast<std::uint64_t>(snap.value("noc.flits_routed"));
  r.generated =
      static_cast<std::uint64_t>(snap.sum("workload.", ".generated"));
  r.pool_hit = pool_after.pool_hits - pool_before.pool_hits;
  r.pool_miss = pool_after.pool_misses - pool_before.pool_misses;
  r.bytes_reused = pool_after.bytes_reused - pool_before.bytes_reused;
  r.live_high_watermark = pool_after.live_high_watermark;
  r.cache_hits =
      static_cast<std::uint64_t>(snap.sum("rmt.cache.", ".hits"));
  r.cache_misses =
      static_cast<std::uint64_t>(snap.sum("rmt.cache.", ".misses"));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_hotpath",
                      "dense vs event ns/cycle + flow-cache gates");
  bool smoke = false;
  args.flag("smoke", "divide horizons by 10 for CI", &smoke);
  args.parse(argc, argv);
  const std::uint64_t seed = args.seed();
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  struct Leg {
    const char* file;
    scenario::Scenario scenario;
  };
  Leg legs[] = {
      {"bench_hotpath_saturated.scenario", {}},
      {"bench_hotpath_steady.scenario", {}},
  };
  for (Leg& leg : legs) {
    std::string error;
    auto s = scenario::Scenario::load(
        std::string(PANIC_SCENARIO_DIR "/") + leg.file, &error);
    if (!s.has_value()) {
      std::fprintf(stderr, "cannot load %s: %s\n", leg.file, error.c_str());
      return EXIT_FAILURE;
    }
    leg.scenario = *s;
    if (smoke) {
      leg.scenario.budget_cycles /= 10;
      leg.scenario.warmup_cycles /= 10;
    }
  }

  std::string json = "{\n  \"bench\": \"hotpath\",\n  \"seed\": " +
                     std::to_string(seed) +
                     ",\n  \"hardware_threads\": " +
                     std::to_string(hardware_threads) + ",\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  \"min_hit_rate\": %.2f,\n  \"scenarios\": [",
                  kMinHitRate);
    json += buf;
  }

  bool first = true;
  bool ok = true;

  for (const Leg& leg : legs) {
    const scenario::Scenario& sc = leg.scenario;
    const char* name = sc.name.c_str();
    const RunResult dense = run_one(sc, SimMode::kStrictTick);
    const RunResult event = run_one(sc, SimMode::kEventDriven);

    // The two kernels must agree — a speedup on a diverging simulation
    // would be meaningless.
    if (dense.delivered != event.delivered || dense.flits != event.flits ||
        dense.generated != event.generated ||
        dense.credit_flushes_per_cycle != event.credit_flushes_per_cycle) {
      std::fprintf(stderr, "FAIL %s: dense/event stats diverge\n", name);
      ok = false;
    }

    // Cache-off control run (event kernel): must be bit-identical on every
    // observable metric — the flow cache may only change host time.
    scenario::Scenario sc_off = sc;
    sc_off.rmt_cache_enabled = false;
    const RunResult off = run_one(sc_off, SimMode::kEventDriven);
    const auto cache_diff =
        event.snapshot.diff_names(off.snapshot, excluded_from_cache_diff);
    bool cache_identical = cache_diff.empty() &&
                           event.delivered == off.delivered &&
                           event.flits == off.flits &&
                           event.generated == off.generated;
    if (!cache_identical) {
      std::fprintf(stderr,
                   "FAIL %s: cache-on/cache-off runs differ on %zu "
                   "metric(s)%s%s\n",
                   name, cache_diff.size(), cache_diff.empty() ? "" : ": ",
                   cache_diff.empty() ? "" : cache_diff.front().c_str());
      ok = false;
    }
    const double cache_speedup =
        event.ns_per_cycle > 0.0 ? off.ns_per_cycle / event.ns_per_cycle
                                 : 0.0;

    const std::uint64_t cache_total = event.cache_hits + event.cache_misses;
    const double hit_rate =
        cache_total > 0
            ? static_cast<double>(event.cache_hits) /
                  static_cast<double>(cache_total)
            : 0.0;
    if (hit_rate < kMinHitRate) {
      std::fprintf(stderr,
                   "FAIL %s: flow-cache hit rate %.4f below %.2f floor\n",
                   name, hit_rate, kMinHitRate);
      ok = false;
    }

    const WorkCeiling* ceiling = nullptr;
    for (const WorkCeiling& c : kCeilings) {
      if (sc.name == c.scenario) ceiling = &c;
    }
    if (ceiling == nullptr) {
      std::fprintf(stderr, "FAIL %s: no work ceiling recorded\n", name);
      ok = false;
    } else {
      const WorkCeiling& c = *ceiling;
      if (event.ticks_per_cycle > c.ticks_per_cycle) {
        std::fprintf(stderr,
                     "FAIL %s: %.3f ticks/cycle above the %.3f ceiling\n",
                     name, event.ticks_per_cycle, c.ticks_per_cycle);
        ok = false;
      }
      if (event.credit_flushes_per_cycle > c.credit_flushes_per_cycle) {
        std::fprintf(stderr,
                     "FAIL %s: %.3f credit flushes/cycle above the %.3f "
                     "ceiling\n",
                     name, event.credit_flushes_per_cycle,
                     c.credit_flushes_per_cycle);
        ok = false;
      }
    }

    // Express worms carry the saturated leg's NoC; none would mean the
    // trigger broke and the event kernel fell back to moving every flit.
    if (sc.name == "hotpath_saturated" && event.express_worms == 0) {
      std::fprintf(stderr, "FAIL %s: no worm went express\n", name);
      ok = false;
    }

    // ns/cycle is machine-dependent, so the kernels are only compared
    // within this run; the pool-miss, hit-rate and cache-identity checks
    // are the machine-independent acceptance gates.
    const double event_vs_dense = dense.ns_per_cycle > 0.0
                                      ? event.ns_per_cycle / dense.ns_per_cycle
                                      : 0.0;

    std::printf("--- %s (%llu warmup + %llu measured cycles, %llu packets)"
                " ---\n",
                name, static_cast<unsigned long long>(sc.warmup_cycles),
                static_cast<unsigned long long>(sc.budget_cycles),
                static_cast<unsigned long long>(event.delivered));
    std::printf("  dense:  %8.1f ms  %7.2f ns/cycle  %7.2f ticks/cycle\n",
                dense.wall_ms, dense.ns_per_cycle, dense.ticks_per_cycle);
    std::printf("  event:  %8.1f ms  %7.2f ns/cycle  %7.2f ticks/cycle"
                "  (event/dense %.3f)\n",
                event.wall_ms, event.ns_per_cycle, event.ticks_per_cycle,
                event_vs_dense);
    std::printf("  noc:    %.3f credit flushes/cycle, %llu express worms\n",
                event.credit_flushes_per_cycle,
                static_cast<unsigned long long>(event.express_worms));
    std::printf("  cache:  hit rate %.4f (%llu hits / %llu misses),"
                " off-leg %7.2f ns/cycle, speedup %.2fx, identical=%s",
                hit_rate, static_cast<unsigned long long>(event.cache_hits),
                static_cast<unsigned long long>(event.cache_misses),
                off.ns_per_cycle, cache_speedup,
                cache_identical ? "yes" : "NO");
    std::printf("\n  alloc:  hit %llu + %llu  miss %llu + %llu"
                "  bytes_reused %llu + %llu\n",
                static_cast<unsigned long long>(dense.pool_hit),
                static_cast<unsigned long long>(event.pool_hit),
                static_cast<unsigned long long>(dense.pool_miss),
                static_cast<unsigned long long>(event.pool_miss),
                static_cast<unsigned long long>(dense.bytes_reused),
                static_cast<unsigned long long>(event.bytes_reused));

    // Both legs must be allocation-free in the measured window: the steady
    // leg after warmup, the saturated leg via its pool_reserve pre-warm.
    const std::uint64_t misses = dense.pool_miss + event.pool_miss;
    if (misses != 0) {
      std::fprintf(stderr,
                   "FAIL %s: %llu pool misses in the measured window"
                   " (hot path allocated)\n",
                   name, static_cast<unsigned long long>(misses));
      ok = false;
    } else {
      std::printf("  measured-window pool-miss: 0 (hot path is"
                  " allocation-free)\n");
    }
    std::printf("\n");

    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"name\": \"%s\", \"warmup\": %llu, \"cycles\": %llu,"
        " \"dense_wall_ms\": %.3f, \"event_wall_ms\": %.3f,"
        " \"dense_ns_per_cycle\": %.3f, \"event_ns_per_cycle\": %.3f,"
        " \"event_vs_dense\": %.3f,"
        " \"dense_ticks_per_cycle\": %.3f, \"event_ticks_per_cycle\": %.3f,"
        " \"credit_flushes_per_cycle\": %.3f, \"express_worms\": %llu,"
        " \"stats_match\": %s,"
        " \"cache\": {\"hits\": %llu, \"misses\": %llu,"
        " \"hit_rate\": %.4f, \"off_ns_per_cycle\": %.3f,"
        " \"speedup_vs_off\": %.3f, \"identical\": %s},"
        " \"alloc\": {\"dense_pool_hit\": %llu, \"dense_pool_miss\": %llu,"
        " \"event_pool_hit\": %llu, \"event_pool_miss\": %llu,"
        " \"bytes_reused\": %llu, \"live_high_watermark\": %llu}}",
        first ? "" : ",", name,
        static_cast<unsigned long long>(sc.warmup_cycles),
        static_cast<unsigned long long>(sc.budget_cycles), dense.wall_ms,
        event.wall_ms, dense.ns_per_cycle, event.ns_per_cycle, event_vs_dense,
        dense.ticks_per_cycle, event.ticks_per_cycle,
        event.credit_flushes_per_cycle,
        static_cast<unsigned long long>(event.express_worms),
        dense.delivered == event.delivered ? "true" : "false",
        static_cast<unsigned long long>(event.cache_hits),
        static_cast<unsigned long long>(event.cache_misses), hit_rate,
        off.ns_per_cycle, cache_speedup,
        cache_identical ? "true" : "false",
        static_cast<unsigned long long>(dense.pool_hit),
        static_cast<unsigned long long>(dense.pool_miss),
        static_cast<unsigned long long>(event.pool_hit),
        static_cast<unsigned long long>(event.pool_miss),
        static_cast<unsigned long long>(dense.bytes_reused +
                                        event.bytes_reused),
        static_cast<unsigned long long>(event.live_high_watermark));
    json += buf;
    first = false;
  }

  char tail[64];
  std::snprintf(tail, sizeof(tail), "\n  ],\n  \"pass\": %s\n}\n",
                ok ? "true" : "false");
  json += tail;

  std::FILE* f = std::fopen("BENCH_hotpath.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_hotpath.json\n");
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
