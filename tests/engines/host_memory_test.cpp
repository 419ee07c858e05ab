#include "engines/host_memory.h"

#include <gtest/gtest.h>

#include "engines/lookup_table.h"

namespace panic::engines {
namespace {

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory mem;
  const std::vector<std::uint8_t> data = {1, 2, 3, 4};
  mem.write(0x1000, data);
  EXPECT_EQ(mem.read(0x1000, 4), data);
  EXPECT_EQ(mem.bytes_written(), 4u);
}

TEST(HostMemory, UntouchedReadsAreDeterministic) {
  HostMemory a, b;
  EXPECT_EQ(a.read(0x9999, 16), b.read(0x9999, 16));
  EXPECT_NE(a.read(0x9999, 16), a.read(0xAAAA, 16));
}

TEST(HostMemory, PartialOverwrite) {
  HostMemory mem;
  mem.write(0x100, std::vector<std::uint8_t>{1, 1, 1, 1});
  mem.write(0x102, std::vector<std::uint8_t>{9});
  const auto got = mem.read(0x100, 4);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 1, 9, 1}));
}

TEST(HostMemory, UnalignedWriteAcrossPageBoundaryKeepsFillAround) {
  // 203 bytes from 3 bytes short of a 64-byte word, crossing the 4 KiB
  // page boundary at 0x2000 mid-word: the written-bitmap must cover
  // exactly the written bytes, in both pages.
  HostMemory mem;
  const HostMemory fresh;
  constexpr std::uint64_t kAddr = 0x1F3D;
  std::vector<std::uint8_t> data(203);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(0xA0 ^ i);
  }
  mem.write(kAddr, data);

  constexpr std::uint64_t kFrom = 0x1E00;
  constexpr std::uint32_t kLen = 0x400;
  const auto got = mem.read(kFrom, kLen);
  const auto fill = fresh.read(kFrom, kLen);
  for (std::uint64_t a = kFrom; a < kFrom + kLen; ++a) {
    const std::size_t i = a - kFrom;
    if (a >= kAddr && a < kAddr + data.size()) {
      EXPECT_EQ(got[i], data[a - kAddr]) << std::hex << a;
    } else {
      EXPECT_EQ(got[i], fill[i]) << std::hex << a;
    }
  }
}

TEST(HostMemory, AllocatorAlignsAndAdvances) {
  HostMemory mem;
  const auto a = mem.allocate(10);
  const auto b = mem.allocate(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_NE(a, b);
}

TEST(LocalLookupTable, ChainHopWinsOverEverything) {
  LocalLookupTable t;
  t.set_default(EngineId{9});
  t.set_kind_route(MessageKind::kDmaRead, EngineId{5});
  auto msg = make_message(MessageKind::kDmaRead);
  msg->chain.push_hop(EngineId{3});
  EXPECT_EQ(t.route(*msg), EngineId{3});
}

TEST(LocalLookupTable, KindRouteBeforeDefault) {
  LocalLookupTable t;
  t.set_default(EngineId{9});
  t.set_kind_route(MessageKind::kDmaRead, EngineId{5});
  const auto read = make_message(MessageKind::kDmaRead);
  EXPECT_EQ(t.route(*read), EngineId{5});
  const auto pkt = make_message(MessageKind::kPacket);
  EXPECT_EQ(t.route(*pkt), EngineId{9});
}

TEST(LocalLookupTable, NoRouteReturnsNullopt) {
  LocalLookupTable t;
  const auto msg = make_message();
  EXPECT_FALSE(t.route(*msg).has_value());
  EXPECT_FALSE(t.has_default());
}

}  // namespace
}  // namespace panic::engines
