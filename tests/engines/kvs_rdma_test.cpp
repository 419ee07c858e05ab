// The §3.2 KVS offload path: cache + RDMA + DMA cooperating on a mini
// mesh, without the RMT pipeline (chains are hand-built).
#include <gtest/gtest.h>

#include "engines/dma_engine.h"
#include "engines/kvs_cache_engine.h"
#include "engines/rdma_engine.h"
#include "engine_test_util.h"
#include "net/packet.h"

namespace panic::engines {
namespace {

using testutil::MiniMesh;

const Ipv4Addr kClient(10, 1, 0, 2);
const Ipv4Addr kServer(10, 0, 0, 1);

MessagePtr kvs_message(std::vector<std::uint8_t> frame) {
  auto msg = make_message(MessageKind::kPacket);
  msg->data = std::move(frame);
  // Annotate as the RMT parser would.
  const auto parsed = parse_frame(msg->data);
  msg->meta.is_kvs = parsed->kvs.has_value();
  if (parsed->kvs) {
    msg->meta.kvs_op = static_cast<std::uint8_t>(parsed->kvs->op);
    msg->meta.kvs_key = parsed->kvs->key;
    msg->meta.kvs_request_id = parsed->kvs->request_id;
  }
  msg->meta.has_udp = true;
  msg->meta_valid = true;
  return msg;
}

struct KvsFixture {
  KvsFixture(KvsCacheMode mode)
      : m(4, 128),
        src(m.tile(0, 0)),
        kvs_tile(m.tile(1, 1)),
        rdma_tile(m.tile(2, 1)),
        dma_tile(m.tile(3, 1)),
        reply_tile(m.tile(0, 3)),
        host_sink(m.tile(3, 3)) {
    EngineConfig cfg;
    KvsCacheConfig kcfg;
    kcfg.mode = mode;
    kcfg.capacity_entries = 8;
    kcfg.rdma_engine = rdma_tile;
    kcfg.reply_route = reply_tile;
    kvs = std::make_unique<KvsCacheEngine>("kvs", &m.mesh.ni(kvs_tile), cfg,
                                           kcfg, &host);
    kvs->lookup_table().set_kind_route(MessageKind::kPacket, host_sink);

    RdmaConfig rcfg;
    rcfg.dma_engine = dma_tile;
    rdma = std::make_unique<RdmaEngine>("rdma", &m.mesh.ni(rdma_tile), cfg,
                                        rcfg);
    rdma->lookup_table().set_default(reply_tile);

    dma = std::make_unique<DmaEngine>("dma", &m.mesh.ni(dma_tile), cfg,
                                      DmaConfig{}, &host);

    m.sim.add(kvs.get());
    m.sim.add(rdma.get());
    m.sim.add(dma.get());
  }

  void send_set(std::uint64_t key, std::size_t value_size,
                std::uint32_t req_id) {
    auto set = kvs_message(
        frames::kvs_set(kClient, kServer, 1, key, req_id, value_size));
    set->chain.push_hop(kvs_tile);
    set->chain.push_hop(host_sink);
    m.send(std::move(set), src, kvs_tile);
    // Drain the host-bound SET.
    m.collect(host_sink);
  }

  MessagePtr send_get(std::uint64_t key, std::uint32_t req_id,
                      EngineId expect_at) {
    auto get = kvs_message(frames::kvs_get(kClient, kServer, 1, key, req_id));
    get->ingress_port = src;
    get->chain.push_hop(kvs_tile);
    m.send(std::move(get), src, kvs_tile);
    return m.collect(expect_at);
  }

  MiniMesh m;
  HostMemory host;
  EngineId src, kvs_tile, rdma_tile, dma_tile, reply_tile, host_sink;
  std::unique_ptr<KvsCacheEngine> kvs;
  std::unique_ptr<RdmaEngine> rdma;
  std::unique_ptr<DmaEngine> dma;
};

TEST(KvsCache, MissForwardsToHost) {
  KvsFixture f(KvsCacheMode::kLocation);
  const auto got = f.send_get(42, 1, f.host_sink);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(f.kvs->misses(), 1u);
  EXPECT_EQ(f.kvs->hits(), 0u);
}

TEST(KvsCache, LocationHitGoesThroughRdmaAndDma) {
  KvsFixture f(KvsCacheMode::kLocation);
  f.send_set(42, 100, 1);
  EXPECT_EQ(f.kvs->sets(), 1u);

  const auto reply = f.send_get(42, 2, f.reply_tile);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(f.kvs->hits(), 1u);
  EXPECT_EQ(f.rdma->requests_issued(), 1u);
  EXPECT_EQ(f.rdma->replies_generated(), 1u);
  EXPECT_EQ(f.dma->reads_served(), 1u);

  // The reply is a well-formed GET reply carrying the 100-byte value.
  const auto parsed = parse_frame(reply->data);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->kvs.has_value());
  EXPECT_EQ(parsed->kvs->op, KvsOp::kGetReply);
  EXPECT_EQ(parsed->kvs->key, 42u);
  EXPECT_EQ(parsed->kvs->request_id, 2u);
  EXPECT_EQ(parsed->payload_size, 100u);
  // Reply addressed back to the client.
  EXPECT_EQ(parsed->ipv4->dst, kClient);
  EXPECT_EQ(parsed->ipv4->src, kServer);
}

TEST(KvsCache, LocationHitValueMatchesWhatWasSet) {
  KvsFixture f(KvsCacheMode::kLocation);
  f.send_set(7, 64, 1);
  const auto reply = f.send_get(7, 2, f.reply_tile);
  ASSERT_NE(reply, nullptr);
  // The SET payload is deterministic (payload_size fill); the reply value
  // must equal the bytes written to host memory at SET time.
  const auto set_frame = frames::kvs_set(kClient, kServer, 1, 7, 1, 64);
  const auto set_parsed = parse_frame(set_frame);
  const auto expect = set_parsed->payload(set_frame);
  const auto reply_parsed = parse_frame(reply->data);
  const auto got = reply_parsed->payload(reply->data);
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()));
}

TEST(KvsCache, ValueModeRepliesDirectly) {
  KvsFixture f(KvsCacheMode::kValue);
  f.send_set(5, 32, 1);
  const auto reply = f.send_get(5, 2, f.reply_tile);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(f.kvs->hits(), 1u);
  EXPECT_EQ(f.rdma->requests_issued(), 0u);  // RDMA not involved
  EXPECT_EQ(f.dma->reads_served(), 0u);
  const auto parsed = parse_frame(reply->data);
  EXPECT_EQ(parsed->kvs->op, KvsOp::kGetReply);
  EXPECT_EQ(parsed->payload_size, 32u);
}

TEST(KvsCache, LruEvictionBoundsEntries) {
  KvsFixture f(KvsCacheMode::kValue);
  for (std::uint64_t key = 0; key < 20; ++key) {
    f.send_set(key, 16, static_cast<std::uint32_t>(key));
  }
  EXPECT_LE(f.kvs->entries(), 8u);  // capacity_entries
  // The oldest keys were evicted: GET key 0 misses.
  f.send_get(0, 100, f.host_sink);
  EXPECT_EQ(f.kvs->misses(), 1u);
  // The newest key still hits.
  f.send_get(19, 101, f.reply_tile);
  EXPECT_EQ(f.kvs->hits(), 1u);
}

TEST(KvsCache, GetTouchRefreshesLru) {
  KvsFixture f(KvsCacheMode::kValue);
  for (std::uint64_t key = 0; key < 8; ++key) {
    f.send_set(key, 16, static_cast<std::uint32_t>(key));
  }
  // Touch key 0 so it becomes most-recent.
  f.send_get(0, 50, f.reply_tile);
  // Insert one more: key 1 (now oldest) is evicted, key 0 survives.
  f.send_set(100, 16, 60);
  f.send_get(0, 61, f.reply_tile);
  EXPECT_EQ(f.kvs->hits(), 2u);
  f.send_get(1, 62, f.host_sink);
  EXPECT_EQ(f.kvs->misses(), 1u);
}

// Every client numbers its KVS requests on its own, so two tenants' GETs
// can be in flight at the RDMA engine under one request_id.  Each must
// still get its own reply, carrying its own key and value and the
// client's request_id.
TEST(KvsCache, SameRequestIdFromTwoTenantsGetsTwoReplies) {
  KvsFixture f(KvsCacheMode::kLocation);
  struct Want {
    std::uint16_t tenant;
    std::uint64_t key;
    std::size_t value_size;
  };
  const Want wants[] = {{1, 7, 64}, {2, 9, 100}};
  for (const Want& w : wants) {
    auto set = kvs_message(
        frames::kvs_set(kClient, kServer, w.tenant, w.key, 1, w.value_size));
    set->chain.push_hop(f.kvs_tile);
    set->chain.push_hop(f.host_sink);
    f.m.send(std::move(set), f.src, f.kvs_tile);
    ASSERT_NE(f.m.collect(f.host_sink), nullptr);
  }
  constexpr std::uint32_t kSharedId = 5;
  for (const Want& w : wants) {
    auto get = kvs_message(
        frames::kvs_get(kClient, kServer, w.tenant, w.key, kSharedId));
    get->ingress_port = f.src;
    get->chain.push_hop(f.kvs_tile);
    f.m.send(std::move(get), f.src, f.kvs_tile);
  }

  std::vector<Want> got;
  for (int i = 0; i < 2; ++i) {
    const auto reply = f.m.collect(f.reply_tile);
    ASSERT_NE(reply, nullptr) << "reply " << i << " lost";
    const auto parsed = parse_frame(reply->data);
    ASSERT_TRUE(parsed.has_value() && parsed->kvs.has_value());
    EXPECT_EQ(parsed->kvs->op, KvsOp::kGetReply);
    EXPECT_EQ(parsed->kvs->request_id, kSharedId);
    got.push_back({parsed->kvs->tenant, parsed->kvs->key,
                   parsed->payload_size});
  }
  EXPECT_EQ(f.rdma->requests_issued(), 2u);
  EXPECT_EQ(f.rdma->replies_generated(), 2u);
  ASSERT_EQ(got.size(), 2u);
  if (got[0].tenant != wants[0].tenant) std::swap(got[0], got[1]);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(got[i].tenant, wants[i].tenant);
    EXPECT_EQ(got[i].key, wants[i].key);
    EXPECT_EQ(got[i].value_size, wants[i].value_size);
  }
}

}  // namespace
}  // namespace panic::engines
