// Shared pieces of the perfbench_sim program: a flat JSON writer, a
// monotonic clock, scenario set-up with per-phase timing, and the inputs
// the per-layer timers and the span decomposition take.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "telemetry/metrics.h"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds one JSON object; values keep every digit (%.17g).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& u64(const std::string& key, std::uint64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  /// `raw` must already be valid JSON (an object, array or literal).
  Json& raw(const std::string& key, const std::string& raw);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);
std::string json_array(const std::vector<double>& values);
std::string json_strings(const std::vector<std::string>& values);

/// A named interval of host time (seconds on the steady clock).
struct HostSpan {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// Chrome trace_event JSON of host spans (one track, "X" events, µs).
std::string host_spans_json(const std::vector<HostSpan>& spans);

/// Parse -> pool_reserve -> ScenarioRun construction -> warmup, each
/// timed separately.  `budget`, when set, replaces the scenario's budget;
/// `spans`, when non-null, receives one span per phase.
struct Setup {
  panic::scenario::Scenario scenario;
  std::unique_ptr<panic::scenario::ScenarioRun> run;
  double parse_s = 0.0;
  double pool_reserve_s = 0.0;
  double build_s = 0.0;
  double warmup_s = 0.0;
  double total_s() const {
    return parse_s + pool_reserve_s + build_s + warmup_s;
  }
};

/// Throws std::runtime_error on a malformed or unbuildable scenario.
Setup set_up(const std::string& text, panic::SimMode mode,
             std::optional<panic::Cycles> budget = std::nullopt,
             std::vector<HostSpan>* spans = nullptr);

/// What the per-layer timers replay, measured on the workload's own run.
struct LayerInputs {
  const panic::scenario::Scenario* scenario = nullptr;
  panic::scenario::ScenarioRun* run = nullptr;
  double ticks_per_cycle = 0.0;
  double wakeups_per_cycle = 0.0;
  /// Per NI tile: messages injected per cycle, mean flits per message,
  /// and messages received per cycle (the traffic matrix's marginals).
  std::vector<double> ni_send_rate;
  std::vector<double> ni_flits_per_msg;
  std::vector<double> ni_recv_rate;
  /// Frames offered per workload line in the window (the frame mix).
  std::vector<double> frame_mix;
};

/// Host-time cost of each layer's public calls, in ns per unit of work.
struct LayerCosts {
  double sim_ns_per_tick = 0.0;
  double noc_ns_per_flit = 0.0;
  double noc_ns_per_idle_router_cycle = 0.0;
  double rmt_ns_per_pass = 0.0;
  double rmt_ns_per_miss = 0.0;
  double sched_ns_per_op = 0.0;
  double crypto_ns_per_byte = 0.0;
  std::size_t crypto_frame_bytes = 0;
  double net_ns_per_message = 0.0;
  double workload_ns_per_frame = 0.0;
};

LayerCosts time_layers(const LayerInputs& in);

/// Per-tenant simulated latency decomposition from the message tracer.
struct SpanStats {
  std::uint64_t events = 0;
  std::uint64_t tracer_dropped = 0;
  std::uint64_t delivered_traced = 0;   ///< fully traced host deliveries
  std::uint64_t delivered_partial = 0;  ///< entered the NIC before tracing
  std::uint64_t missing_ingress = 0;    ///< entered after, no ingress event
  std::uint64_t broken_chains = 0;      ///< a step followed a wrong kind
  std::uint64_t sum_mismatches = 0;     ///< parts did not sum to latency
  std::uint64_t order_violations = 0;   ///< an event earlier than its predecessor
  /// "prev->kind" -> count, for every step that followed a wrong kind.
  std::map<std::string, std::uint64_t> bad_steps;
  /// tenant -> part -> per-message cycles.
  std::map<int, std::vector<std::vector<std::uint32_t>>> parts;
};

/// Folds traced events into per-message spans: each interval between two
/// consecutive events of one message is charged to one part.  A delivery
/// counts as fully traced when its chain starts at the port's ingress
/// event and every step follows a kind it may follow; its parts must then
/// sum to the latency the DMA engine reports.  Events may be fed chunk by
/// chunk; per-message state carries across calls.
class LatencySpans {
 public:
  static constexpr int kParts = 5;  // rmt, noc, queue, service, dma
  static const char* part_name(int p);

  LatencySpans(const panic::telemetry::MessageTracer& tracer,
              const panic::scenario::Scenario& scenario,
              panic::Cycle trace_start);
  void feed(const std::vector<panic::telemetry::TraceEvent>& events);
  SpanStats& stats() { return stats_; }

 private:
  struct State {
    panic::Cycle first_cycle = 0;
    panic::Cycle last_cycle = 0;
    panic::telemetry::TraceEventKind last_kind{};
    bool from_ingress = false;  ///< first event is a port's ingress kEmit
    bool broken = false;        ///< some step followed a wrong kind
    std::uint32_t slack = 0;
    std::uint64_t parts[kParts] = {};
  };
  enum class Where : signed char { kUnknown, kDma, kEth, kOther };
  int classify(const panic::telemetry::TraceEvent& e) const;

  const panic::telemetry::MessageTracer& tracer_;
  panic::Cycle trace_start_;
  std::map<std::uint32_t, int> slack_to_tenant_;
  std::vector<Where> where_;  ///< per tracer tag
  std::unordered_map<std::uint64_t, State> live_;
  SpanStats stats_;
};

}  // namespace perfbench
