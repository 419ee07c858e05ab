// perfbench_sim — the measuring half of the simulator benchmark
// (perfbench/run.py is the other half: it generates the scenario from the
// workload seed, builds this program and runs one process per step).
//
//   perfbench_sim result <scenario> --mode dense|event [--budget N]
//                 [--audit]
//       Runs the scenario (optionally a prefix of it) through
//       ScenarioRun::run_all and prints its result JSON.
//   perfbench_sim setup <scenario>
//       Times parse, pool_reserve, NIC build and warmup; prints JSON.
//   perfbench_sim measure <scenario> --chunks K [--budget N]
//                 [--layers] [--result-out FILE] [--chunks-out FILE]
//       Set-up, then the measured window (the scenario's budget, or N) in K
//       equal Simulator::run chunks under the event kernel with tracing
//       off (a scenario's `threads` line only affects the parallel kernel,
//       so it is ignored).  Checks the conservation ledger, credit and
//       queue-audit violations and the steady-state gate; prints one JSON
//       line.
//       --layers adds the per-layer counts and host-time costs.
//   perfbench_sim traced <scenario> --chunks K [--spans-out FILE]
//       The same window with the message tracer on; prints the per-tenant
//       simulated latency decomposition and writes host-time spans.
//
// Exit codes: 0 ok, 1 usage or I/O error, 2 correctness failure,
// 3 steady-state gate failure (correctness held).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "bench.h"
#include "common/rng.h"
#include "engines/sched_queue.h"
#include "fault/invariants.h"
#include "net/message_pool.h"

namespace perfbench {

using panic::scenario::Scenario;
using panic::scenario::ScenarioRun;
using panic::telemetry::MetricsSnapshot;
using panic::telemetry::MetricValue;

// ---------------------------------------------------------------- JSON --

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + json_escape(k) + "\": ";
}
Json& Json::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}
Json& Json::u64(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}
Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}
Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + json_escape(v) + "\"";
  return *this;
}
Json& Json::raw(const std::string& k, const std::string& raw) {
  key(k);
  body_ += raw;
  return *this;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(values[i]) + "\"";
  }
  return out + "]";
}

std::string host_spans_json(const std::vector<HostSpan>& spans) {
  std::string out = "{\"traceEvents\": [\n";
  const double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                  i ? ",\n" : "", json_escape(spans[i].name).c_str(),
                  (spans[i].start_s - t0) * 1e6, spans[i].dur_s * 1e6);
    out += buf;
  }
  return out + "\n]}\n";
}

// --------------------------------------------------------------- setup --

Setup set_up(const std::string& text, panic::SimMode mode,
             std::optional<panic::Cycles> budget,
             std::vector<HostSpan>* spans) {
  Setup su;
  auto mark = [&](const char* name, double start, double* slot) {
    const double end = now_s();
    *slot = end - start;
    if (spans != nullptr) spans->push_back({name, start, end - start});
  };
  double t = now_s();
  std::string error;
  auto parsed = Scenario::parse(text, &error);
  if (!parsed.has_value()) throw std::runtime_error("scenario: " + error);
  su.scenario = std::move(*parsed);
  if (budget.has_value()) su.scenario.budget_cycles = *budget;
  mark("parse", t, &su.parse_s);
  // As panic_run does: the scenario's seed line seeds the process, so a
  // written scenario replays bit-identically there.
  if (su.scenario.seed != 0) panic::set_sim_seed(su.scenario.seed);

  t = now_s();
  if (su.scenario.pool_reserve > 0) {
    panic::MessagePool::instance().reserve(su.scenario.pool_reserve);
  }
  mark("pool_reserve", t, &su.pool_reserve_s);

  t = now_s();
  panic::scenario::RunOptions opts;
  opts.mode = mode;
  su.run = std::make_unique<ScenarioRun>(su.scenario, opts);
  mark("build", t, &su.build_s);

  t = now_s();
  su.run->run_warmup();
  mark("warmup", t, &su.warmup_s);
  return su;
}

namespace {

// ------------------------------------------------------------- helpers --

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Kernel counters, every metric and the pool tallies at one cycle.
struct Sample {
  panic::Cycle now = 0;
  std::uint64_t ticks = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t fast_forwarded = 0;
  std::uint64_t events = 0;
  MetricsSnapshot snap;
  panic::MessagePool::Stats pool;

  static Sample take(ScenarioRun& run) {
    Sample s;
    auto& sim = run.sim();
    s.now = sim.now();
    s.ticks = sim.component_ticks();
    s.wakeups = sim.wakeups();
    s.fast_forwarded = sim.fast_forwarded_cycles();
    s.events = sim.events_executed();
    s.snap = sim.snapshot();
    s.pool = panic::MessagePool::instance().stats();
    return s;
  }
  double sum(const std::string& prefix, const std::string& suffix) const {
    return snap.sum(prefix, suffix);
  }
  double value(const std::string& name) const {
    const MetricValue* v = snap.find(name);
    return v == nullptr ? 0.0 : v->value;
  }
  const MetricValue* hist(const std::string& name) const {
    return snap.find(name);
  }
};

double delta(const Sample& a, const Sample& b, const std::string& prefix,
             const std::string& suffix) {
  return b.sum(prefix, suffix) - a.sum(prefix, suffix);
}

double frames_offered(const Sample& s) {
  return s.sum("workload.", ".generated");
}

double frames_delivered(const Sample& s) {
  return s.value("engine.dma.packets_to_host") +
         s.sum("engine.eth", ".tx_packets");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of a cumulative histogram restricted to the samples recorded
/// between `a` and `b` (exact: sum = mean * count at both ends).
double window_mean(const MetricValue* a, const MetricValue* b) {
  if (b == nullptr) return 0.0;
  const double na = a ? static_cast<double>(a->count) : 0.0;
  const double sa = a ? a->mean * na : 0.0;
  const double nb = static_cast<double>(b->count);
  return ratio(nb * b->mean - sa, nb - na);
}

// -------------------------------------------------------- steady gate --

/// The latency-sensitive tenant: tenant 1 in every generated workload and
/// in the saturated control.
constexpr int kLsTenant = 1;

/// A workload is steady when nothing that measures backlog grows from
/// the first half of the measured window to the second: staging and
/// queue high-watermarks, the pool's live message count and the
/// latency-sensitive tenant's mean latency.  Limits allow 25% plus a
/// small absolute slack, far below the linear growth of an overloaded
/// NIC.
struct SteadyVerdict {
  bool ok = true;
  std::vector<std::string> reasons;
  double ls_latency_first = 0.0;
  double ls_latency_second = 0.0;
};

SteadyVerdict steady_gate(const Sample& start, const Sample& mid,
                          const Sample& end) {
  SteadyVerdict v;
  auto grew = [&](const std::string& what, double first, double second,
                  double slack) {
    if (second > 1.25 * first + slack) {
      v.ok = false;
      char buf[200];
      std::snprintf(buf, sizeof(buf), "%s grew %.0f -> %.0f", what.c_str(),
                    first, second);
      v.reasons.push_back(buf);
    }
  };
  for (const MetricValue& m : end.snap.entries()) {
    if (ends_with(m.name, "staging_high_watermark") ||
        ends_with(m.name, ".queue.max_depth") ||
        ends_with(m.name, "no_route_watermark")) {
      grew(m.name, mid.value(m.name), m.value, 16.0);
    }
  }
  grew("pool live messages", static_cast<double>(mid.pool.live),
       static_cast<double>(end.pool.live), 128.0);
  const std::string lat =
      "engine.dma.host_latency.tenant." + std::to_string(kLsTenant);
  v.ls_latency_first = window_mean(start.hist(lat), mid.hist(lat));
  v.ls_latency_second = window_mean(mid.hist(lat), end.hist(lat));
  grew("tenant " + std::to_string(kLsTenant) + " mean latency",
       v.ls_latency_first, v.ls_latency_second, 64.0);
  return v;
}

// ------------------------------------------------------------ commands --

struct Args {
  std::string command;
  std::string scenario;
  std::map<std::string, std::string> opts;
  bool has(const std::string& k) const { return opts.count(k) != 0; }
  std::string get(const std::string& k, const std::string& d = "") const {
    const auto it = opts.find(k);
    return it == opts.end() ? d : it->second;
  }
  long long num(const std::string& k, long long d) const {
    return has(k) ? std::stoll(get(k)) : d;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 3) throw std::runtime_error("usage: perfbench_sim <command> <scenario> [options]");
  a.command = argv[1];
  a.scenario = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (k.substr(0, 2) != "--") {
      throw std::runtime_error("bad option " + std::string(k));
    }
    const bool has_value =
        i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
    a.opts.insert_or_assign(std::string(k.substr(2)),
                            std::string(has_value ? argv[++i] : "1"));
  }
  return a;
}

int cmd_result(const Args& a) {
  std::string error;
  auto s = Scenario::parse(read_file(a.scenario), &error);
  if (!s.has_value()) throw std::runtime_error("scenario: " + error);
  if (a.has("budget")) s->budget_cycles = a.num("budget", 0);
  if (a.has("audit")) panic::engines::SchedulerQueue::set_audit(true);
  if (s->seed != 0) panic::set_sim_seed(s->seed);
  panic::scenario::RunOptions opts;
  const std::string mode = a.get("mode", "event");
  if (mode == "dense") {
    opts.mode = panic::SimMode::kStrictTick;
  } else if (mode == "event") {
    opts.mode = panic::SimMode::kEventDriven;
  } else {
    throw std::runtime_error("--mode must be dense or event");
  }
  const panic::fault::ConservationChecker ledger;
  ScenarioRun run(*s, opts);
  run.run_all();
  std::fputs(run.result_json().c_str(), stdout);
  return ledger.verify() ? 0 : 2;
}

int cmd_setup(const Args& a) {
  const std::string text = read_file(a.scenario);
  const Setup su = set_up(text, panic::SimMode::kEventDriven);
  Json j;
  j.num("parse_s", su.parse_s)
      .num("pool_reserve_s", su.pool_reserve_s)
      .num("build_s", su.build_s)
      .num("warmup_s", su.warmup_s)
      .num("setup_s", su.total_s());
  std::printf("%s\n", j.done().c_str());
  return 0;
}

/// Chunk timings of a window.  On a shared host, co-runners slow whole
/// stretches of seconds by up to 2x, which moves the plain chunk median by
/// up to +-30% between runs.  The headline figure is therefore the median,
/// over kSegments equal consecutive stretches of the window, of each
/// stretch's fastest-1% chunk: the uncontended cost, taken across the
/// whole window, so a program that slows down as the run goes on moves it.
/// The plain median and the highest percentile with at least ten chunks
/// beyond it are reported too.
struct ChunkStats {
  static constexpr std::size_t kSegments = 5;
  double floor_ns = 0.0;
  double median_ns = 0.0;
  double high_ns = 0.0;
  double high_pct = 0.0;
  std::size_t chunks = 0;
};

/// Nearest-rank percentile of `v`.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

ChunkStats chunk_stats(const std::vector<double>& ns_per_cycle) {
  ChunkStats c;
  const std::size_t n = ns_per_cycle.size();
  c.chunks = n;
  c.median_ns = median(ns_per_cycle);
  std::vector<double> floors;
  for (std::size_t i = 0; i < ChunkStats::kSegments; ++i) {
    const auto first = ns_per_cycle.begin() + i * n / ChunkStats::kSegments;
    const auto last =
        ns_per_cycle.begin() + (i + 1) * n / ChunkStats::kSegments;
    if (first != last) {
      floors.push_back(percentile(std::vector<double>(first, last), 0.01));
    }
  }
  c.floor_ns = median(floors);
  std::vector<double> sorted = ns_per_cycle;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx = n > 10 ? n - 11 : 0;
  c.high_ns = sorted.empty() ? 0.0 : sorted[idx];
  c.high_pct = sorted.empty() ? 0.0
                              : 100.0 * static_cast<double>(idx + 1) /
                                    static_cast<double>(n);
  return c;
}

int cmd_measure(const Args& a) {
  const std::string text = read_file(a.scenario);
  const panic::fault::ConservationChecker ledger_all;
  Setup su = set_up(text, panic::SimMode::kEventDriven,
                    a.has("budget") ? std::optional<panic::Cycles>(
                                          a.num("budget", 0))
                                    : std::nullopt);
  ScenarioRun& run = *su.run;
  const panic::Cycles budget = su.scenario.budget_cycles;
  const long long chunks = a.num("chunks", 1000);
  if (chunks < 2 || budget % chunks != 0) {
    throw std::runtime_error("budget must split into --chunks equal chunks");
  }
  const panic::Cycles chunk_cycles = budget / chunks;

  panic::fault::ConservationChecker ledger_window;
  const Sample start = Sample::take(run);
  Sample mid;
  std::vector<double> chunk_ns;
  chunk_ns.reserve(chunks);
  double wall = 0.0;
  for (long long k = 0; k < chunks; ++k) {
    const double t = now_s();
    run.sim().run(chunk_cycles);
    const double dt = now_s() - t;
    wall += dt;
    chunk_ns.push_back(dt * 1e9 / static_cast<double>(chunk_cycles));
    if (k == chunks / 2 - 1) mid = Sample::take(run);
  }
  const Sample end = Sample::take(run);
  const auto window = ledger_window.delta();

  if (a.has("chunks-out")) {
    std::ofstream out(a.get("chunks-out"));
    out << json_array(chunk_ns) << "\n";
  }
  if (a.has("result-out")) {
    std::ofstream out(a.get("result-out"));
    out << run.result_json();
    if (!out) throw std::runtime_error("cannot write " + a.get("result-out"));
  }

  // --- Correctness. ---
  std::vector<std::string> failures;
  if (!ledger_all.verify()) {
    failures.push_back("conservation ledger open: " +
                       ledger_all.delta().to_string());
  }
  const double credit_violations =
      end.sum("noc.router.", ".credit_violations");
  const double audit_violations = end.sum("", ".audit_violations");
  if (credit_violations != 0.0) failures.push_back("router credit violations");
  if (audit_violations != 0.0) failures.push_back("queue audit violations");
  const SteadyVerdict steady = steady_gate(start, mid, end);

  // --- End-to-end figures. ---
  const ChunkStats cs = chunk_stats(chunk_ns);
  const double offered = frames_offered(end) - frames_offered(start);
  const double delivered = frames_delivered(end) - frames_delivered(start);
  const std::string lat =
      "engine.dma.host_latency.tenant." + std::to_string(kLsTenant);
  const MetricValue* ls = end.hist(lat);
  if (ls == nullptr || ls->count == 0) {
    failures.push_back("no host deliveries of tenant " +
                       std::to_string(kLsTenant));
  }
  const std::uint64_t failed_frames = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, window.dropped + window.shed + window.faulted));

  // frames_per_s is the frames offered over the window's cycles at the
  // floor cost (frames per uncontended wall second).  Over the window's
  // whole wall time, co-runner stretches spread it by up to 0.5 between
  // identical runs; that figure is per-layer host.frames_per_wall_s.
  Json e2e;
  e2e.num("ns_per_cycle", cs.floor_ns)
      .num("ns_per_cycle_median", cs.median_ns)
      .num("ns_per_cycle_p99", cs.high_ns)
      .num("ns_per_cycle_p99_percentile", cs.high_pct)
      .u64("chunks", cs.chunks)
      .u64("chunk_cycles", chunk_cycles)
      .num("frames_per_s",
           ratio(offered, static_cast<double>(budget) * cs.floor_ns * 1e-9))
      .num("setup_s", su.total_s())
      .num("peak_rss_mb", peak_rss_mb())
      .num("sim_latency_p50_cycles", ls ? static_cast<double>(ls->p50) : 0.0)
      .num("sim_latency_p99_cycles", ls ? static_cast<double>(ls->p99) : 0.0)
      .num("sim_delivered_frac", ratio(delivered, offered));

  Json setup;
  setup.num("parse_s", su.parse_s)
      .num("pool_reserve_s", su.pool_reserve_s)
      .num("build_s", su.build_s)
      .num("warmup_s", su.warmup_s);

  Json out;
  out.raw("end_to_end", e2e.done())
      .raw("setup", setup.done())
      .num("window_wall_s", wall)
      .u64("window_cycles", budget)
      .u64("frames_offered", static_cast<std::uint64_t>(offered))
      .u64("frames_delivered", static_cast<std::uint64_t>(delivered))
      .u64("frames_failed", failed_frames)
      .boolean("correct", failures.empty())
      .raw("failures", json_strings(failures))
      .boolean("steady", steady.ok)
      .raw("steady_reasons", json_strings(steady.reasons))
      .num("ls_latency_mean_first_half", steady.ls_latency_first)
      .num("ls_latency_mean_second_half", steady.ls_latency_second)
      .raw("machine", Json()
                          .str("compiler", PERFBENCH_COMPILER)
                          .str("build_type", PERFBENCH_BUILD_TYPE)
                          .done());

  if (a.has("layers")) {
    const double n = static_cast<double>(budget);
    const Sample& s0 = start;
    const Sample& s1 = end;
    const double ticks = static_cast<double>(s1.ticks - s0.ticks);
    const double flits = delta(s0, s1, "noc.flits_routed", "");
    const double passes = delta(s0, s1, "nic.rmt_passes", "");
    const double hits = delta(s0, s1, "rmt.cache.", ".hits");
    const double misses = delta(s0, s1, "rmt.cache.", ".misses");
    const double rmt_deq = delta(s0, s1, "rmt.", ".queue.dequeued");
    const double eng_deq = delta(s0, s1, "engine.", ".queue.dequeued");
    const double sched_ops = delta(s0, s1, "", ".queue.enqueued") +
                             delta(s0, s1, "", ".queue.dequeued");
    const double crypto_ops = delta(s0, s1, "engine.ipsec", "crypted");
    const double pool_hits =
        static_cast<double>(s1.pool.pool_hits - s0.pool.pool_hits);
    const double pool_misses =
        static_cast<double>(s1.pool.pool_misses - s0.pool.pool_misses);
    double busy_max = 0.0;
    for (const MetricValue& m : s1.snap.entries()) {
      if (m.name.rfind("engine.", 0) == 0 && ends_with(m.name, ".busy_cycles")) {
        busy_max = std::max(busy_max, (m.value - s0.value(m.name)) / n);
      }
    }
    const MetricValue* resteer = s1.hist("fault.recovery.time_to_resteer");

    LayerInputs in;
    in.scenario = &su.scenario;
    in.run = &run;
    in.ticks_per_cycle = ticks / n;
    in.wakeups_per_cycle = static_cast<double>(s1.wakeups - s0.wakeups) / n;
    const int tiles = run.nic().mesh().tiles();
    for (int t = 0; t < tiles; ++t) {
      const std::string p = "noc.ni." + std::to_string(t) + ".";
      const double sent = delta(s0, s1, p + "messages_sent", "");
      in.ni_send_rate.push_back(sent / n);
      in.ni_flits_per_msg.push_back(
          ratio(delta(s0, s1, p + "flits_sent", ""), sent));
      in.ni_recv_rate.push_back(delta(s0, s1, p + "messages_received", "") /
                                n);
    }
    for (std::size_t i = 0; i < su.scenario.workloads.size(); ++i) {
      const auto& w = su.scenario.workloads[i];
      const std::string name = w.name.empty() ? "w" + std::to_string(i) : w.name;
      in.frame_mix.push_back(
          delta(s0, s1, "workload." + name + ".generated", ""));
    }
    const LayerCosts c = time_layers(in);
    const std::uint64_t executed_cycles =
        budget - (s1.fast_forwarded - s0.fast_forwarded);

    // Host time the layer costs explain: each layer's ns per unit times
    // that layer's unit count in the window, over the window's wall time.
    const double wall_ns = wall * 1e9;
    const double explained[] = {
        c.sim_ns_per_tick * ticks,
        c.noc_ns_per_flit * flits +
            c.noc_ns_per_idle_router_cycle * tiles *
                static_cast<double>(executed_cycles),
        c.rmt_ns_per_pass * hits + c.rmt_ns_per_miss * misses,
        c.sched_ns_per_op * sched_ops +
            c.crypto_ns_per_byte * crypto_ops *
                static_cast<double>(c.crypto_frame_bytes),
        c.net_ns_per_message * static_cast<double>(window.created),
        c.workload_ns_per_frame * offered,
    };
    const char* const explained_layer[] = {"sim", "noc", "rmt",
                                           "engines", "net", "workload"};
    double explained_ns = 0.0;
    for (double e : explained) explained_ns += e;

    Json l;
    l.num("sim.ticks_per_cycle", ticks / n)
        .num("sim.wakeups_per_cycle", in.wakeups_per_cycle)
        .num("sim.fast_forward_frac",
             static_cast<double>(s1.fast_forwarded - s0.fast_forwarded) / n)
        .num("sim.events_per_cycle",
             static_cast<double>(s1.events - s0.events) / n)
        .num("sim.host_ns_per_tick", c.sim_ns_per_tick)
        .num("noc.flits_per_cycle", flits / n)
        .num("noc.stall_cycles_per_flit",
             ratio(delta(s0, s1, "noc.router.", ".stall_cycles"), flits))
        .num("noc.host_ns_per_flit", c.noc_ns_per_flit)
        .num("noc.host_ns_per_idle_router_cycle",
             c.noc_ns_per_idle_router_cycle)
        .num("rmt.passes_per_frame", ratio(passes, offered))
        .num("rmt.cache.hit_ratio", ratio(hits, hits + misses))
        .num("rmt.cache.flushes", delta(s0, s1, "rmt.cache.", ".flushes"))
        .num("rmt.queue.wait_cycles",
             ratio(delta(s0, s1, "rmt.", ".queue.wait_cycles"), rmt_deq))
        .num("rmt.host_ns_per_pass", c.rmt_ns_per_pass)
        .num("rmt.host_ns_per_miss", c.rmt_ns_per_miss)
        .num("engines.busy_frac.max", busy_max)
        .num("engines.queue.wait_cycles",
             ratio(delta(s0, s1, "engine.", ".queue.wait_cycles"), eng_deq))
        .num("engines.queue.dropped", delta(s0, s1, "", ".queue.dropped"))
        .num("engines.pifo.rank_evals_per_frame",
             ratio(delta(s0, s1, "", ".pifo.rank_evals"), offered))
        .num("engines.host_ns_per_sched_op", c.sched_ns_per_op)
        .num("engines.host_ns_per_crypto_byte", c.crypto_ns_per_byte)
        .num("net.pool_miss", pool_misses)
        .num("net.live_high_watermark",
             static_cast<double>(s1.pool.live_high_watermark))
        .num("net.pool_hit_ratio", ratio(pool_hits, pool_hits + pool_misses))
        .num("net.host_ns_per_message", c.net_ns_per_message)
        .num("workload.host_ns_per_frame", c.workload_ns_per_frame)
        .num("fault.incidents", delta(s0, s1, "fault.recovery.incidents", ""))
        .num("fault.time_to_resteer_cycles", resteer ? resteer->mean : 0.0)
        .num("fault.no_route_parked", delta(s0, s1, "", ".no_route_parked"))
        .num("fault.no_route_shed", delta(s0, s1, "", ".no_route_shed"))
        .num("scenario.parse_s", su.parse_s)
        .num("scenario.build_s", su.build_s)
        .num("scenario.pool_reserve_s", su.pool_reserve_s)
        .num("scenario.warmup_s", su.warmup_s)
        .num("host.measured_chunks", static_cast<double>(cs.chunks))
        .num("host.ns_per_cycle_median", cs.median_ns)
        .num("host.ns_per_cycle_p99", cs.high_ns)
        .num("host.frames_per_wall_s", ratio(offered, wall))
        .num("host.explained_frac", ratio(explained_ns, wall_ns));
    for (int i = 0; i < 6; ++i) {
      l.num(std::string("host.explained.") + explained_layer[i] + "_frac",
            ratio(explained[i], wall_ns));
    }
    out.raw("per_layer", l.done());
  }

  std::printf("%s\n", out.done().c_str());
  if (!failures.empty()) return 2;
  return steady.ok ? 0 : 3;
}

/// Tracer ring size.  The ring is drained after every chunk, and one chunk
/// of any workload records 1k-14k events; a drop fails the run.
constexpr std::size_t kTracerCapacity = 1u << 18;

int cmd_traced(const Args& a) {
  std::vector<HostSpan> spans;
  const std::string text = read_file(a.scenario);
  Setup su = set_up(text, panic::SimMode::kEventDriven, std::nullopt, &spans);
  ScenarioRun& run = *su.run;
  const panic::Cycles budget = su.scenario.budget_cycles;
  const long long chunks = a.num("chunks", 100);
  if (chunks < 1 || budget % chunks != 0) {
    throw std::runtime_error("budget must split into --chunks equal chunks");
  }
  const panic::Cycles chunk_cycles = budget / chunks;
  auto& tracer = run.sim().telemetry().tracer();
  tracer.enable(kTracerCapacity);
  LatencySpans spans_of(tracer, su.scenario, run.sim().now());

  // Wall time of the window, trace drains included: what tracing costs.
  double wall = 0.0;
  for (long long k = 0; k < chunks; ++k) {
    double t = now_s();
    run.sim().run(chunk_cycles);
    double dt = now_s() - t;
    spans.push_back({"chunk " + std::to_string(k), t, dt});
    wall += dt;
    t = now_s();
    const auto events = tracer.events();
    spans_of.stats().tracer_dropped += tracer.dropped();
    tracer.clear();
    spans_of.feed(events);
    dt = now_s() - t;
    spans.push_back({"trace drain " + std::to_string(k), t, dt});
    wall += dt;
  }
  double t = now_s();
  const MetricsSnapshot snap = run.sim().snapshot();
  spans.push_back({"snapshot", t, now_s() - t});
  const MetricValue* host = snap.find("engine.dma.packets_to_host");
  if (a.has("spans-out")) {
    std::ofstream out(a.get("spans-out"));
    out << host_spans_json(spans);
  }

  SpanStats& st = spans_of.stats();
  Json lat;
  for (int tenant = 1; tenant <= 3; ++tenant) {
    const auto it = st.parts.find(tenant);
    for (int p = 0; p < LatencySpans::kParts; ++p) {
      const std::vector<std::uint32_t> v =
          it == st.parts.end() ? std::vector<std::uint32_t>{} : it->second[p];
      const std::string base = std::string("lat.") + LatencySpans::part_name(p) +
                               "_cycles.t" + std::to_string(tenant);
      lat.num(base + ".p50", percentile(v, 0.50));
      lat.num(base + ".p99", percentile(v, 0.99));
    }
  }
  std::uint64_t unknown = 0;
  if (auto it = st.parts.find(0); it != st.parts.end()) {
    unknown = it->second[0].size();
  }
  const bool ok = st.tracer_dropped == 0 && st.sum_mismatches == 0 &&
                  st.missing_ingress == 0 && st.broken_chains == 0 &&
                  st.order_violations == 0 && unknown == 0 &&
                  st.delivered_traced > 0;
  Json bad_steps;
  for (const auto& [step, count] : st.bad_steps) bad_steps.u64(step, count);
  Json out;
  out.num("traced_ns_per_cycle", wall * 1e9 / static_cast<double>(budget))
      .raw("lat", lat.done())
      .u64("trace_events", st.events)
      .u64("tracer_dropped", st.tracer_dropped)
      .u64("delivered_traced", st.delivered_traced)
      .u64("delivered_partial", st.delivered_partial)
      .u64("missing_ingress", st.missing_ingress)
      .u64("broken_chains", st.broken_chains)
      .raw("bad_steps", bad_steps.done())
      .u64("sum_mismatches", st.sum_mismatches)
      .u64("order_violations", st.order_violations)
      .u64("unknown_tenant", unknown)
      .num("host_delivered", host ? host->value : 0.0)
      .boolean("correct", ok);
  std::printf("%s\n", out.done().c_str());
  return ok ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    if (a.command == "result") return cmd_result(a);
    if (a.command == "setup") return cmd_setup(a);
    if (a.command == "measure") return cmd_measure(a);
    if (a.command == "traced") return cmd_traced(a);
    std::fprintf(stderr, "perfbench_sim: unknown command '%s'\n",
                 a.command.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
  }
  return 1;
}
