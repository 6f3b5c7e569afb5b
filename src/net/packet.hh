/**
 * @file
 * Network packet representation for the modeled Ethernet fabric.
 */

#ifndef HYDRA_NET_PACKET_HH
#define HYDRA_NET_PACKET_HH

#include <cstdint>
#include <functional>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "obs/span.hh"
#include "common/time.hh"

namespace hydra::net {

/** Identifies an attachment point on the modeled network. */
using NodeId = std::uint32_t;

/** UDP-style port number. */
using Port = std::uint16_t;

constexpr NodeId kInvalidNode = 0xffffffffu;

/** A UDP-lite datagram. */
struct Packet
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Port srcPort = 0;
    Port dstPort = 0;
    std::uint64_t seq = 0;
    /** Shared immutable buffer; copying the Packet shares the bytes. */
    Payload payload;
    /** Stamped by Network::send for latency/jitter measurement. */
    sim::SimTime sentAt = 0;
    /** Causal context of the sender, restored at delivery. */
    obs::SpanContext traceCtx;

    std::size_t
    wireBytes() const
    {
        // Ethernet + IP + UDP framing overhead on the modeled wire.
        return payload.size() + 42;
    }
};

using PacketHandler = std::function<void(const Packet &)>;

} // namespace hydra::net

#endif // HYDRA_NET_PACKET_HH
