// Integration tests of the concrete offload engines on a mini mesh.
#include <gtest/gtest.h>

#include "engines/checksum_engine.h"
#include "engines/compression_engine.h"
#include "engines/dma_engine.h"
#include "engines/ethernet_port.h"
#include "engines/ipsec_engine.h"
#include "engines/kvs_cache_engine.h"
#include "engines/rdma_engine.h"
#include "engines/regex_engine.h"
#include "engine_test_util.h"
#include "net/packet.h"

namespace panic::engines {
namespace {

using testutil::MiniMesh;

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

MessagePtr frame_message(std::vector<std::uint8_t> frame) {
  auto msg = make_message(MessageKind::kPacket);
  msg->data = std::move(frame);
  return msg;
}

TEST(IpsecStatic, EncapDecapRoundTrip) {
  const auto inner = frames::kvs_get(kSrc, kDst, 1, 42, 7);
  const auto esp = IpsecEngine::encapsulate(inner, 0x1001, 3);

  const auto parsed = parse_frame(esp);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->esp.has_value());
  EXPECT_EQ(parsed->esp->spi, 0x1001u);

  const auto clear = IpsecEngine::decapsulate(esp);
  ASSERT_TRUE(clear.has_value());
  // The decapsulated frame parses back to the original KVS GET.
  const auto reparsed = parse_frame(*clear);
  ASSERT_TRUE(reparsed.has_value());
  ASSERT_TRUE(reparsed->kvs.has_value());
  EXPECT_EQ(reparsed->kvs->key, 42u);
}

TEST(IpsecStatic, CiphertextDiffersFromPlaintext) {
  const auto inner = frames::kvs_get(kSrc, kDst, 1, 42, 7);
  const auto esp = IpsecEngine::encapsulate(inner, 0x1001, 3);
  const auto parsed = parse_frame(esp);
  const auto ct = parsed->payload(esp);
  // The inner KVS magic must not appear in the ciphertext.
  bool found = false;
  for (std::size_t i = 0; i + 4 <= ct.size(); ++i) {
    if (ct[i] == 0x50 && ct[i + 1] == 0x41 && ct[i + 2] == 0x4B &&
        ct[i + 3] == 0x56) {
      found = true;
    }
  }
  EXPECT_FALSE(found);
}

TEST(IpsecStatic, TamperingDetected) {
  const auto inner = frames::min_udp(kSrc, kDst);
  auto esp = IpsecEngine::encapsulate(inner, 0x1001, 1);
  esp[esp.size() - 12] ^= 0x01;  // flip a ciphertext bit
  EXPECT_FALSE(IpsecEngine::decapsulate(esp).has_value());
}

TEST(IpsecEngineTest, DecryptRoutesBackToDefault) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId ipsec_tile = m.tile(1, 1);
  const EngineId rmt_tile = m.tile(2, 2);

  EngineConfig cfg;
  IpsecConfig icfg;
  icfg.mode = IpsecMode::kDecrypt;
  IpsecEngine ipsec("ipsec", &m.mesh.ni(ipsec_tile), cfg, icfg);
  ipsec.lookup_table().set_default(rmt_tile);
  m.sim.add(&ipsec);

  const auto inner = frames::kvs_get(kSrc, kDst, 1, 99, 5);
  auto msg = frame_message(IpsecEngine::encapsulate(inner, 0x2002, 1));
  msg->chain.push_hop(ipsec_tile);
  m.send(std::move(msg), src, ipsec_tile);

  const auto got = m.collect(rmt_tile);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(ipsec.decrypted(), 1u);
  const auto parsed = parse_frame(got->data);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->kvs.has_value());
  EXPECT_EQ(parsed->kvs->key, 99u);
  EXPECT_FALSE(got->meta_valid);  // must be re-parsed (second RMT pass)
}

TEST(IpsecEngineTest, AuthFailureDropsPacket) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId ipsec_tile = m.tile(1, 1);
  const EngineId rmt_tile = m.tile(2, 2);

  EngineConfig cfg;
  IpsecConfig icfg;
  icfg.mode = IpsecMode::kDecrypt;
  IpsecEngine ipsec("ipsec", &m.mesh.ni(ipsec_tile), cfg, icfg);
  ipsec.lookup_table().set_default(rmt_tile);
  m.sim.add(&ipsec);

  auto esp = IpsecEngine::encapsulate(frames::min_udp(kSrc, kDst), 1, 1);
  esp.back() ^= 0xFF;
  auto msg = frame_message(std::move(esp));
  msg->chain.push_hop(ipsec_tile);
  m.send(std::move(msg), src, ipsec_tile);
  m.sim.run(5000);
  EXPECT_EQ(ipsec.auth_failures(), 1u);
  EXPECT_EQ(m.mesh.ni(rmt_tile).messages_received(), 0u);
}

TEST(DmaEngineTest, ReadReturnsHostBytes) {
  MiniMesh m;
  const EngineId requester = m.tile(0, 0);
  const EngineId dma_tile = m.tile(1, 1);

  HostMemory host;
  const std::vector<std::uint8_t> value = {9, 8, 7, 6, 5};
  host.write(0x5000, value);

  EngineConfig cfg;
  DmaEngine dma("dma", &m.mesh.ni(dma_tile), cfg, DmaConfig{}, &host);
  m.sim.add(&dma);

  auto read = make_message(MessageKind::kDmaRead);
  read->dma_addr = 0x5000;
  read->dma_bytes = 5;
  read->reply_to = requester;
  m.send(std::move(read), requester, dma_tile);

  const auto got = m.collect(requester);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->kind, MessageKind::kDmaCompletion);
  EXPECT_EQ(got->data, value);
  EXPECT_EQ(dma.reads_served(), 1u);
  // Base latency must have elapsed.
  EXPECT_GE(m.sim.now(), DmaConfig{}.base_latency);
}

TEST(DmaEngineTest, PacketDeliveryEmitsInterrupt) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId dma_tile = m.tile(1, 1);
  const EngineId pcie_tile = m.tile(2, 2);

  HostMemory host;
  EngineConfig cfg;
  DmaEngine dma("dma", &m.mesh.ni(dma_tile), cfg, DmaConfig{}, &host);
  dma.lookup_table().set_kind_route(MessageKind::kInterrupt, pcie_tile);
  m.sim.add(&dma);

  auto msg = frame_message(frames::min_udp(kSrc, kDst));
  msg->nic_ingress_at = 0;
  msg->chain.push_hop(dma_tile);
  m.send(std::move(msg), src, dma_tile);

  const auto irq = m.collect(pcie_tile);
  ASSERT_NE(irq, nullptr);
  EXPECT_EQ(irq->kind, MessageKind::kInterrupt);
  EXPECT_EQ(dma.packets_to_host(), 1u);
  EXPECT_GT(host.bytes_written(), 0u);
}

TEST(DmaEngineTest, ContentionJitterVariesServiceTime) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId dma_tile = m.tile(1, 1);
  HostMemory host;
  EngineConfig cfg;
  DmaConfig dcfg;
  dcfg.contention_mean = 200.0;
  DmaEngine dma("dma", &m.mesh.ni(dma_tile), cfg, dcfg, &host);
  m.sim.add(&dma);

  for (int i = 0; i < 50; ++i) {
    auto msg = frame_message(frames::min_udp(kSrc, kDst));
    msg->chain.push_hop(dma_tile);
    m.send(std::move(msg), src, dma_tile);
    m.sim.run(2000);
  }
  const auto hist = m.sim.snapshot().at("engine.dma.service_cycles");
  EXPECT_EQ(hist.count, 50u);
  EXPECT_GT(hist.max, hist.min);  // jitter produced variation
  EXPECT_GT(hist.mean,
            static_cast<double>(dcfg.base_latency));  // extra cost visible
}

TEST(DmaEngineTest, RxRingWrapsSoHostPagesStayBounded) {
  // Every delivered packet is written into the host RX ring.  The ring
  // wraps inside a fixed region, so the pages backing it stop growing once
  // the ring has been filled — however long the run.
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId dma_tile = m.tile(1, 1);
  const EngineId pcie_tile = m.tile(2, 2);

  HostMemory host;
  EngineConfig cfg;
  DmaConfig dcfg;
  dcfg.base_latency = 1;
  DmaEngine dma("dma", &m.mesh.ni(dma_tile), cfg, dcfg, &host);
  dma.lookup_table().set_kind_route(MessageKind::kInterrupt, pcie_tile);
  m.sim.add(&dma);

  const auto frame = frames::min_udp(kSrc, kDst);
  auto deliver = [&](std::uint64_t total) {
    m.sim.run_until(
        [&] {
          while (m.mesh.ni(pcie_tile).try_receive(m.sim.now()) != nullptr) {
          }
          if (m.mesh.ni(src).can_inject()) {
            auto msg = frame_message(frame);
            msg->chain.push_hop(dma_tile);
            m.send(std::move(msg), src, dma_tile);
          }
          return dma.packets_to_host() >= total;
        },
        100'000'000);
    return dma.packets_to_host();
  };

  constexpr std::size_t kRingPages = DmaEngine::kRxRingBytes / 4096;
  ASSERT_GE(deliver(10'000), 10'000u);
  ASSERT_GT(host.bytes_written(), DmaEngine::kRxRingBytes);  // wrapped
  const std::size_t filled = host.pages();
  EXPECT_LE(filled, kRingPages);

  ASSERT_GE(deliver(100'000), 100'000u);
  EXPECT_EQ(host.pages(), filled);
  EXPECT_GE(host.bytes_written(), 100'000u * frame.size());
}

TEST(ChecksumStatic, FillAndVerify) {
  auto frame = frames::kvs_get(kSrc, kDst, 1, 2, 3);
  ASSERT_TRUE(ChecksumEngine::fill_l4_checksum(frame));
  EXPECT_TRUE(ChecksumEngine::verify_l4_checksum(frame));
  frame[50] ^= 0x01;  // corrupt payload
  EXPECT_FALSE(ChecksumEngine::verify_l4_checksum(frame));
}

TEST(ChecksumStatic, TcpFrames) {
  auto frame = FrameBuilder()
                   .eth(*MacAddr::parse("02:00:00:00:00:01"),
                        *MacAddr::parse("02:00:00:00:00:02"))
                   .ipv4(kSrc, kDst)
                   .tcp(1000, 2000, 1, 1)
                   .payload_size(100)
                   .build();
  ASSERT_TRUE(ChecksumEngine::fill_l4_checksum(frame));
  EXPECT_TRUE(ChecksumEngine::verify_l4_checksum(frame));
}

TEST(ChecksumStatic, NonIpRejected) {
  auto frame = FrameBuilder()
                   .eth(*MacAddr::parse("02:00:00:00:00:01"),
                        *MacAddr::parse("02:00:00:00:00:02"), kEtherTypeArp)
                   .payload_size(50)
                   .build();
  EXPECT_FALSE(ChecksumEngine::fill_l4_checksum(frame));
}

TEST(CompressionEngineTest, CompressThenDecompressAcrossEngines) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId comp_tile = m.tile(1, 0);
  const EngineId decomp_tile = m.tile(1, 2);
  const EngineId sink = m.tile(2, 2);

  EngineConfig cfg;
  CompressionConfig ccfg;
  ccfg.mode = CompressionMode::kCompress;
  CompressionEngine comp("comp", &m.mesh.ni(comp_tile), cfg, ccfg);
  CompressionConfig dcfg;
  dcfg.mode = CompressionMode::kDecompress;
  CompressionEngine decomp("decomp", &m.mesh.ni(decomp_tile), cfg, dcfg);
  m.sim.add(&comp);
  m.sim.add(&decomp);

  // A highly compressible payload.
  std::vector<std::uint8_t> payload(600, 'Z');
  auto original = FrameBuilder()
                      .eth(*MacAddr::parse("02:00:00:00:00:01"),
                           *MacAddr::parse("02:00:00:00:00:02"))
                      .ipv4(kSrc, kDst)
                      .udp(1000, 2000)
                      .payload(payload)
                      .build();

  auto msg = frame_message(original);
  msg->chain.push_hop(comp_tile);
  msg->chain.push_hop(decomp_tile);
  msg->chain.push_hop(sink);
  m.send(std::move(msg), src, comp_tile);

  const auto got = m.collect(sink);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(comp.processed_ok(), 1u);
  EXPECT_EQ(decomp.processed_ok(), 1u);
  EXPECT_LT(comp.bytes_out(), comp.bytes_in());  // it actually compressed
  const auto parsed = parse_frame(got->data);
  ASSERT_TRUE(parsed.has_value());
  const auto restored = parsed->payload(got->data);
  ASSERT_EQ(restored.size(), payload.size());
  EXPECT_TRUE(std::equal(restored.begin(), restored.end(), payload.begin()));
}

TEST(RegexEngineTest, MarksMatchingPackets) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId regex_tile = m.tile(1, 1);
  const EngineId sink = m.tile(2, 2);

  EngineConfig cfg;
  RegexEngine regex("regex", &m.mesh.ni(regex_tile), cfg, RegexConfig{});
  ASSERT_TRUE(regex.add_pattern("attack[0-9]+"));
  EXPECT_FALSE(regex.add_pattern("(bad"));
  m.sim.add(&regex);

  const std::string evil = "GET /attack42 HTTP/1.1";
  auto frame = FrameBuilder()
                   .eth(*MacAddr::parse("02:00:00:00:00:01"),
                        *MacAddr::parse("02:00:00:00:00:02"))
                   .ipv4(kSrc, kDst)
                   .udp(1000, 80)
                   .payload(std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(evil.data()),
                       evil.size()))
                   .build();
  auto msg = frame_message(std::move(frame));
  msg->chain.push_hop(regex_tile);
  msg->chain.push_hop(sink);
  m.send(std::move(msg), src, regex_tile);

  const auto got = m.collect(sink);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->meta.cache_hint, 1u);
  EXPECT_EQ(regex.matched(), 1u);
}

TEST(EthernetPortTest, RxRoutesToDefaultAndMeters) {
  MiniMesh m;
  const EngineId port_tile = m.tile(0, 0);
  const EngineId rmt_tile = m.tile(2, 2);

  EngineConfig cfg;
  EthernetPortEngine port("eth0", &m.mesh.ni(port_tile), cfg,
                          DataRate::gbps(100), Frequency::megahertz(500));
  port.lookup_table().set_default(rmt_tile);
  m.sim.add(&port);

  port.deliver_rx(frames::min_udp(kSrc, kDst), m.sim.now(), 0, TenantId{4});
  const auto got = m.collect(rmt_tile);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->tenant.value, 4);
  EXPECT_EQ(got->ingress_port, port_tile);
  EXPECT_EQ(port.rx_meter().packets(), 1u);
}

TEST(EthernetPortTest, TxPacesAtLineRateAndRecords) {
  MiniMesh m;
  const EngineId src = m.tile(0, 0);
  const EngineId port_tile = m.tile(1, 1);

  EngineConfig cfg;
  // 10 Gbps at 500 MHz = 20 bits/cycle: a 1500B frame takes ~608 cycles.
  EthernetPortEngine port("eth0", &m.mesh.ni(port_tile), cfg,
                          DataRate::gbps(10), Frequency::megahertz(500));
  int sunk = 0;
  port.set_tx_sink([&](const Message&, Cycle) { ++sunk; });
  m.sim.add(&port);

  m.sim.run(10);  // so the ingress timestamp is distinguishable from "unset"
  auto msg = frame_message(
      FrameBuilder()
          .eth(*MacAddr::parse("02:00:00:00:00:01"),
               *MacAddr::parse("02:00:00:00:00:02"))
          .ipv4(kSrc, kDst)
          .udp(1, 2)
          .payload_size(1458)
          .build());
  msg->nic_ingress_at = m.sim.now();
  msg->chain.push_hop(port_tile);
  m.send(std::move(msg), src, port_tile);

  m.sim.run(1000);
  EXPECT_EQ(sunk, 1);
  EXPECT_EQ(port.tx_meter().packets(), 1u);
  EXPECT_GT(port.tx_latency().max(), 500u);  // serialization dominated
}

}  // namespace
}  // namespace panic::engines
