// Simulated-latency decomposition from MessageTracer events.
//
// A received frame's life is the chain of its trace events, in record
// order.  It starts with the kEmit the Ethernet port records when the frame
// enters the NIC (at the cycle the DMA engine later measures latency
// from) and ends with kHostDeliver.  The interval that ends at an event is
// charged by that event's kind:
//
//   kRmtClassify                            -> rmt
//   kDequeue, kServiceStart                 -> queue (waiting for service)
//   kEmit after service (parked, no route)  -> queue
//   kServiceEnd                             -> service (dma on the DMA tile)
//   kHostDeliver                            -> dma
//   kNocHop, kEnqueue                       -> noc (transit between tiles)
//
// kFault events annotate a step (a re-steer) and are not steps themselves.
// The parts of a chain add up to (delivery cycle - first event's cycle);
// the check compares that with the latency the DMA engine reports, which it
// takes from the message's own ingress stamp.  A chain that does not start
// at a port's ingress kEmit, or that skips a step (each kind may only
// follow the kinds allowed_after() lists), fails the check.
#include "bench.h"

namespace perfbench {

using panic::telemetry::TraceEvent;
using panic::telemetry::TraceEventKind;

namespace {
constexpr int kRmt = 0;
constexpr int kNoc = 1;
constexpr int kQueue = 2;
constexpr int kService = 3;
constexpr int kDma = 4;

constexpr std::uint32_t bit(TraceEventKind k) {
  return 1u << static_cast<unsigned>(k);
}

/// The kinds each step of a delivered frame's chain may follow.
std::uint32_t allowed_after(TraceEventKind k) {
  using K = TraceEventKind;
  switch (k) {
    case K::kNocHop:
      return bit(K::kEmit) | bit(K::kRmtClassify) | bit(K::kNocHop);
    case K::kEnqueue:
      return bit(K::kNocHop);
    case K::kDequeue:
      return bit(K::kEnqueue);
    case K::kServiceStart:
    case K::kRmtClassify:
      return bit(K::kDequeue);
    case K::kServiceEnd:
      return bit(K::kServiceStart);
    case K::kEmit:
    case K::kHostDeliver:
    case K::kTxWire:
      return bit(K::kServiceEnd);
    default:
      return 0;
  }
}
}  // namespace

const char* LatencySpans::part_name(int p) {
  static const char* const kNames[kParts] = {"rmt", "noc", "queue",
                                             "service", "dma"};
  return kNames[p];
}

LatencySpans::LatencySpans(const panic::telemetry::MessageTracer& tracer,
                         const panic::scenario::Scenario& scenario,
                         panic::Cycle trace_start)
    : tracer_(tracer), trace_start_(trace_start) {
  // Tenants are told apart by the slack the slack stage stamps on their
  // chain hops; the generator gives every tenant a distinct slack.
  for (const auto& [tenant, slack] : scenario.tenant_slacks) {
    slack_to_tenant_[slack] = tenant;
  }
}

int LatencySpans::classify(const TraceEvent& e) const {
  switch (e.kind) {
    case TraceEventKind::kRmtClassify:
      return kRmt;
    case TraceEventKind::kDequeue:
    case TraceEventKind::kServiceStart:
    case TraceEventKind::kEmit:
      return kQueue;
    case TraceEventKind::kServiceEnd:
      return where_[e.where] == Where::kDma ? kDma : kService;
    case TraceEventKind::kHostDeliver:
      return kDma;
    default:
      return kNoc;
  }
}

void LatencySpans::feed(const std::vector<TraceEvent>& events) {
  stats_.events += events.size();
  for (const TraceEvent& e : events) {
    if (e.where >= where_.size()) {
      where_.resize(e.where + 1u, Where::kUnknown);
    }
    if (where_[e.where] == Where::kUnknown) {
      const std::string& name = tracer_.name_of(e.where);
      where_[e.where] = name == "dma"                ? Where::kDma
                        : name.rfind("eth", 0) == 0 ? Where::kEth
                                                     : Where::kOther;
    }
    if (e.kind == TraceEventKind::kFault) continue;

    auto [it, fresh] = live_.try_emplace(e.msg.value);
    State& s = it->second;
    if (fresh) {
      s.first_cycle = e.cycle;
      s.from_ingress =
          e.kind == TraceEventKind::kEmit && where_[e.where] == Where::kEth;
    } else if (e.cycle < s.last_cycle) {
      ++stats_.order_violations;
    } else {
      if ((allowed_after(e.kind) & bit(s.last_kind)) == 0) {
        s.broken = true;
        ++stats_.bad_steps[std::string(panic::telemetry::to_string(
                               s.last_kind)) +
                           "->" + panic::telemetry::to_string(e.kind)];
      }
      s.parts[classify(e)] += e.cycle - s.last_cycle;
    }
    s.last_cycle = e.cycle;
    s.last_kind = e.kind;
    if (e.kind == TraceEventKind::kEnqueue) s.slack = e.arg;

    switch (e.kind) {
      case TraceEventKind::kHostDeliver: {
        const panic::Cycle latency = e.arg;
        if (!s.from_ingress) {
          // Entered the NIC before tracing began, or lost its first events.
          if (e.cycle >= latency && e.cycle - latency >= trace_start_) {
            ++stats_.missing_ingress;
          } else {
            ++stats_.delivered_partial;
          }
        } else if (s.broken) {
          ++stats_.broken_chains;
        } else {
          std::uint64_t sum = 0;
          for (std::uint64_t p : s.parts) sum += p;
          if (sum != latency) {
            ++stats_.sum_mismatches;
          } else {
            ++stats_.delivered_traced;
            const auto t = slack_to_tenant_.find(s.slack);
            const int tenant = t == slack_to_tenant_.end() ? 0 : t->second;
            auto& per = stats_.parts[tenant];
            if (per.empty()) per.resize(kParts);
            for (int p = 0; p < kParts; ++p) {
              per[p].push_back(static_cast<std::uint32_t>(s.parts[p]));
            }
          }
        }
        live_.erase(it);
        break;
      }
      case TraceEventKind::kTxWire:
      case TraceEventKind::kDrop:
      case TraceEventKind::kQueueDrop:
        live_.erase(it);
        break;
      default:
        break;
    }
  }
}

}  // namespace perfbench
