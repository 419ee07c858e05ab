#include "engines/host_memory.h"

#include <algorithm>

namespace panic::engines {

void HostMemory::write(std::uint64_t addr,
                       std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint64_t a = addr + i;
    auto& page = store_[a >> kPageShift];
    if (page == nullptr) page = std::make_unique<Page>();
    const std::size_t off = a & (kPageSize - 1);
    const std::size_t n = std::min(data.size() - i, kPageSize - off);
    std::copy_n(data.data() + i, n, page->data.data() + off);
    page->mark_written(off, n);
    i += n;
  }
  bytes_written_ += data.size();
}

void HostMemory::Page::mark_written(std::size_t off, std::size_t n) {
  const std::size_t end = off + n;
  while (off < end) {
    const std::size_t bit = off & 63;
    const std::size_t take = std::min<std::size_t>(64 - bit, end - off);
    const std::uint64_t ones =
        take == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << take) - 1);
    written[off >> 6] |= ones << bit;
    off += take;
  }
}

std::uint8_t HostMemory::deterministic_byte(std::uint64_t addr) {
  std::uint64_t z = addr + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint8_t>(z ^ (z >> 31));
}

std::vector<std::uint8_t> HostMemory::read(std::uint64_t addr,
                                           std::uint32_t len) const {
  std::vector<std::uint8_t> out;
  read_into(addr, len, out);
  return out;
}

void HostMemory::read_into(std::uint64_t addr, std::uint32_t len,
                           std::vector<std::uint8_t>& out) const {
  out.resize(len);
  std::size_t i = 0;
  while (i < len) {
    const std::uint64_t a = addr + i;
    const std::size_t off = a & (kPageSize - 1);
    const std::size_t n =
        std::min<std::size_t>(len - i, kPageSize - off);
    const auto it = store_.find(a >> kPageShift);
    if (it == store_.end()) {
      for (std::size_t j = 0; j < n; ++j) out[i + j] = deterministic_byte(a + j);
    } else {
      const Page& p = *it->second;
      for (std::size_t j = 0; j < n; ++j) {
        out[i + j] =
            p.is_written(off + j) ? p.data[off + j] : deterministic_byte(a + j);
      }
    }
    i += n;
  }
}

std::uint64_t HostMemory::allocate(std::uint32_t len) {
  const std::uint64_t addr = next_alloc_;
  next_alloc_ += (len + 63) & ~63ull;  // cache-line align
  return addr;
}

}  // namespace panic::engines
