#include "net/tcp_model.hh"

#include <algorithm>
#include <cassert>

namespace hydra::net {

TcpPathModel::TcpPathModel(TcpCostModel costs) : costs_(costs) {}

TcpPathPoint
TcpPathModel::evaluate(TcpDirection direction,
                       std::size_t packet_bytes) const
{
    assert(packet_bytes > 0);

    const bool tx = direction == TcpDirection::Transmit;
    const double per_packet =
        tx ? costs_.txPerPacketCycles : costs_.rxPerPacketCycles;
    const double per_byte =
        tx ? costs_.txPerByteCycles : costs_.rxPerByteCycles;

    const double bytes = static_cast<double>(packet_bytes);
    const double cycles_per_packet = per_packet + per_byte * bytes;
    const double bits_per_packet = bytes * 8.0;

    // Packets per second the CPU could process at 100 % utilization.
    const double cpu_pps =
        costs_.hostClockGhz * 1e9 / cycles_per_packet;
    const double cpu_gbps = cpu_pps * bits_per_packet / 1e9;

    TcpPathPoint point;
    point.packetBytes = packet_bytes;
    point.throughputGbps = std::min(costs_.lineRateGbps, cpu_gbps);
    point.cpuUtilization =
        std::min(1.0, point.throughputGbps / cpu_gbps);
    point.ghzPerGbps = point.cpuUtilization * costs_.hostClockGhz /
                       point.throughputGbps;
    return point;
}

} // namespace hydra::net
