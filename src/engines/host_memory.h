// Synthetic host-memory model behind the DMA engine.
//
// The paper's NIC talks to real host DRAM over PCIe; we substitute a
// deterministic store: writes are retained, reads return written bytes or
// a deterministic pseudo-random fill for untouched addresses (so DMA reads
// always produce stable, checkable data without pre-populating gigabytes).
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace panic::engines {

class HostMemory {
 public:
  /// allocate() hands out addresses from here upward; fixed regions (the
  /// DMA engine's RX ring) live below it.
  static constexpr std::uint64_t kAllocBase = 0x100000;  // 1 MiB

  void write(std::uint64_t addr, std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> read(std::uint64_t addr, std::uint32_t len) const;
  /// Reads into an existing buffer (resized to `len`), reusing its
  /// capacity — the DMA engine fills recycled completion messages with it.
  void read_into(std::uint64_t addr, std::uint32_t len,
                 std::vector<std::uint8_t>& out) const;

  /// Simple bump allocator for tests/engines that need fresh regions.
  std::uint64_t allocate(std::uint32_t len);

  std::size_t bytes_written() const { return bytes_written_; }
  /// 4 KiB pages backing written bytes (the model's host footprint).
  std::size_t pages() const { return store_.size(); }

 private:
  static constexpr std::size_t kPageShift = 12;
  static constexpr std::size_t kPageSize = 1u << kPageShift;

  /// Sparse page: raw bytes plus a written-bitmap so untouched bytes keep
  /// reading as the deterministic fill (same observable behaviour as the
  /// old byte-granular map, without a hash node per written byte).
  struct Page {
    std::array<std::uint8_t, kPageSize> data;
    std::bitset<kPageSize> written;
  };

  static std::uint8_t deterministic_byte(std::uint64_t addr);

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> store_;  // by page
  std::uint64_t next_alloc_ = kAllocBase;
  std::size_t bytes_written_ = 0;
};

}  // namespace panic::engines
