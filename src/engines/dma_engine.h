// DMA engine: the tile that moves data between the NIC and host memory.
// In PANIC the DMA engine is an ordinary engine on the mesh (§3.1.1 "this
// also includes existing NIC components that would not normally be thought
// of as switch ports, including the on-NIC DMA and PCIe engines").
//
// Handled message kinds:
//   kPacket        — host-bound packet: written to the host RX ring (a
//                    fixed region the writes wrap around in), then an
//                    interrupt message is emitted toward the PCIe tile.
//   kDmaRead       — returns a kDmaCompletion carrying the bytes to
//                    msg->reply_to.
//   kDmaWrite      — writes msg->data at msg->dma_addr; a zero-length
//                    kDmaCompletion acks to reply_to if set.
//   kDescriptorFetch — modelled as a fixed-size read of a TX descriptor.
//
// Service time models PCIe/DRAM: fixed base latency + per-byte cost +
// exponential contention jitter — §3.2: "Due to possible memory contention
// from applications on the main CPU, the DMA engine has variable
// performance and may become a bottleneck."
#pragma once

#include <unordered_map>

#include "common/rng.h"
#include "common/stats.h"
#include "engines/engine.h"
#include "engines/host_memory.h"

namespace panic::engines {

struct DmaConfig {
  Cycles base_latency = 75;        ///< ~150 ns @ 500 MHz PCIe round trip
  double bytes_per_cycle = 32.0;   ///< ~128 Gbps payload bandwidth @500MHz
  double contention_mean = 0.0;    ///< mean extra cycles (exponential); 0=off
  std::uint64_t seed = 0x00D7A00D;
};

class DmaEngine : public Engine {
 public:
  /// The synthetic host RX ring: packets are written back to back and the
  /// write pointer wraps to the base when the next one would cross the
  /// end, so delivered traffic touches a bounded set of host pages.  It
  /// sits below HostMemory::kAllocBase, disjoint from every allocate()d
  /// region; nothing reads it back.
  static constexpr std::uint64_t kRxRingBase = 0x80000;
  static constexpr std::uint64_t kRxRingBytes = 0x80000;  // 512 KiB
  static_assert(kRxRingBase + kRxRingBytes <= HostMemory::kAllocBase);

  DmaEngine(std::string name, noc::NetworkInterface* ni,
            const EngineConfig& config, const DmaConfig& dma,
            HostMemory* host);

  /// Host-bound packets delivered (terminal RX path).
  std::uint64_t packets_to_host() const { return packets_to_host_; }
  std::uint64_t reads_served() const { return reads_served_; }
  std::uint64_t writes_served() const { return writes_served_; }
  /// End-to-end NIC latency (ingress -> host delivery) of RX packets.
  const Histogram& host_delivery_latency() const { return delivery_hist_; }
  /// Same, split per tenant (for the isolation experiments).
  const Histogram& host_delivery_latency(TenantId tenant) {
    return per_tenant_hist_[tenant.value];
  }

  /// Adds host-delivery counters + latency histograms (per-tenant splits
  /// register lazily as "engine.<name>.host_latency.tenant.<id>").
  void register_telemetry(telemetry::Telemetry& t) override;

 protected:
  Cycles service_time(const Message& msg) const override;
  bool process(Message& msg, Cycle now) override;

 private:
  DmaConfig dma_;
  HostMemory* host_;
  mutable Rng rng_;

  std::uint64_t packets_to_host_ = 0;
  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_served_ = 0;
  std::uint64_t next_ring_addr_ = kRxRingBase;
  Histogram delivery_hist_;
  std::unordered_map<std::uint16_t, Histogram> per_tenant_hist_;
};

}  // namespace panic::engines
