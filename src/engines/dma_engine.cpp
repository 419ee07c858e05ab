#include "engines/dma_engine.h"

#include <cassert>
#include <cmath>

#include "telemetry/telemetry.h"

namespace panic::engines {

void DmaEngine::register_telemetry(telemetry::Telemetry& t) {
  Engine::register_telemetry(t);
  auto& m = t.metrics();
  const std::string p = metric_prefix();
  m.expose_counter(p + "packets_to_host", &packets_to_host_);
  m.expose_counter(p + "reads_served", &reads_served_);
  m.expose_counter(p + "writes_served", &writes_served_);
  m.expose_histogram(p + "host_latency", &delivery_hist_);
  // Per-tenant splits that already exist; later ones register lazily.
  for (auto& [tenant, hist] : per_tenant_hist_) {
    m.expose_histogram(p + "host_latency.tenant." + std::to_string(tenant),
                       &hist);
  }
}

DmaEngine::DmaEngine(std::string name, noc::NetworkInterface* ni,
                     const EngineConfig& config, const DmaConfig& dma,
                     HostMemory* host)
    : Engine(std::move(name), ni, config), dma_(dma), host_(host),
      rng_(derive_seed(dma.seed)) {
  assert(host_ != nullptr);
}

Cycles DmaEngine::service_time(const Message& msg) const {
  std::uint32_t bytes = 0;
  switch (msg.kind) {
    case MessageKind::kPacket:
      bytes = static_cast<std::uint32_t>(msg.data.size());
      break;
    case MessageKind::kDmaRead:
      bytes = msg.dma_bytes;
      break;
    case MessageKind::kDmaWrite:
      bytes = static_cast<std::uint32_t>(msg.data.size());
      break;
    case MessageKind::kDescriptorFetch:
      bytes = 16;
      break;
    default:
      bytes = 0;
      break;
  }
  double t = static_cast<double>(dma_.base_latency) +
             static_cast<double>(bytes) / dma_.bytes_per_cycle;
  if (dma_.contention_mean > 0.0) {
    t += rng_.exponential(dma_.contention_mean);
  }
  return static_cast<Cycles>(std::ceil(t));
}

bool DmaEngine::process(Message& msg, Cycle now) {
  switch (msg.kind) {
    case MessageKind::kPacket: {
      // Deliver to the host RX ring.
      const std::uint64_t span = (msg.data.size() + 63) & ~63ull;
      if (next_ring_addr_ + span > kRxRingBase + kRxRingBytes) {
        next_ring_addr_ = kRxRingBase;
      }
      host_->write(next_ring_addr_, msg.data);
      next_ring_addr_ += span;
      ++packets_to_host_;
      if (now >= msg.nic_ingress_at) {
        const Cycles latency = now - msg.nic_ingress_at;
        delivery_hist_.record(latency);
        auto it = per_tenant_hist_.find(msg.tenant.value);
        if (it == per_tenant_hist_.end()) {
          it = per_tenant_hist_.emplace(msg.tenant.value, Histogram{}).first;
          if (telemetry() != nullptr) {
            telemetry()->metrics().expose_histogram(
                metric_prefix() + "host_latency.tenant." +
                    std::to_string(msg.tenant.value),
                &it->second);
          }
        }
        it->second.record(latency);
        trace(telemetry::TraceEventKind::kHostDeliver, now, msg.id,
              static_cast<std::uint32_t>(latency));
      }
      // §3.2: after the DMA completes, notify the PCIe engine so it can
      // (conditionally) raise an interrupt.
      auto irq = make_message(MessageKind::kInterrupt);
      irq->slack = msg.slack;
      irq->tenant = msg.tenant;
      const auto route = lookup_table().route(*irq);
      if (route.has_value() && *route != id()) {
        emit(std::move(irq), *route, now);
      } else {
        irq->set_fate(MessageFate::kConsumed);
      }
      msg.set_fate(MessageFate::kDelivered);
      return false;  // packet consumed (lives in host memory now)
    }
    case MessageKind::kDmaRead: {
      ++reads_served_;
      if (!msg.reply_to.valid()) return false;
      auto completion = make_message(MessageKind::kDmaCompletion);
      host_->read_into(msg.dma_addr, msg.dma_bytes, completion->data);
      completion->dma_addr = msg.dma_addr;
      completion->dma_bytes = msg.dma_bytes;
      completion->tenant = msg.tenant;
      completion->slack = msg.slack;
      completion->created_at = msg.created_at;
      completion->nic_ingress_at = msg.nic_ingress_at;
      completion->ingress_port = msg.ingress_port;
      // Thread the original request id through for the requester's
      // pending-operation table.
      completion->meta = msg.meta;
      completion->meta_valid = msg.meta_valid;
      emit(std::move(completion), msg.reply_to, now);
      return false;
    }
    case MessageKind::kDmaWrite: {
      ++writes_served_;
      host_->write(msg.dma_addr, msg.data);
      if (msg.reply_to.valid()) {
        auto ack = make_message(MessageKind::kDmaCompletion);
        ack->dma_addr = msg.dma_addr;
        ack->tenant = msg.tenant;
        ack->slack = msg.slack;
        ack->meta = msg.meta;
        ack->meta_valid = msg.meta_valid;
        emit(std::move(ack), msg.reply_to, now);
      }
      return false;
    }
    case MessageKind::kDescriptorFetch: {
      ++reads_served_;
      if (msg.reply_to.valid()) {
        auto completion = make_message(MessageKind::kDmaCompletion);
        host_->read_into(msg.dma_addr, 16, completion->data);
        completion->dma_addr = msg.dma_addr;
        completion->tenant = msg.tenant;
        completion->slack = msg.slack;
        completion->meta = msg.meta;
        completion->meta_valid = msg.meta_valid;
        emit(std::move(completion), msg.reply_to, now);
      }
      return false;
    }
    default:
      // Unknown kinds pass through along their chain.
      return true;
  }
}

}  // namespace panic::engines
