// Flit-level representation of messages on the on-chip network.
//
// A message of S wire bytes on a W-bit channel is carried by
// ceil((8*S + header bits) / W) flits using wormhole switching: the head
// flit locks the path hop by hop, body flits stream behind it, and the tail
// flit releases the path.  The Message object itself rides on the tail flit
// (the simulation equivalent of the last flit completing delivery).
//
// A flit is never an object of its own: it is described by its index
// within the message (`seq`) and the message's flit count (`total`), and
// stored only inside the burst descriptors of burst_queue.h (contiguous
// flits of one message collapse into a single descriptor with body flits
// accounted arithmetically).  Flit 0 is the head, flit total-1 the tail.
#pragma once

#include <cstddef>
#include <cstdint>

namespace panic::noc {

/// NoC-level header overhead per message, in bits (destination address,
/// length, type).  Charged once per message against channel bandwidth.
inline constexpr std::uint32_t kNocHeaderBits = 64;

/// Number of flits needed to carry `wire_bytes` on a `channel_bits`-wide
/// link.
constexpr std::uint32_t flits_for(std::size_t wire_bytes,
                                  std::uint32_t channel_bits) {
  const std::uint64_t bits = static_cast<std::uint64_t>(wire_bytes) * 8 +
                             kNocHeaderBits;
  return static_cast<std::uint32_t>((bits + channel_bits - 1) / channel_bits);
}

}  // namespace panic::noc
