/**
 * @file
 * Analytic TCP host-processing cost model, after Foong et al.,
 * "TCP performance re-visited" (ISPASS'03) — the source of the
 * paper's Figure 1 (GHz/Gbps transmit and receive ratios).
 *
 * The model charges a fixed per-packet cost (protocol processing,
 * interrupt and descriptor handling) plus a per-byte cost (copies
 * and checksum; higher on receive, where the payload arrives cache
 * cold). From these it derives the paper's metric:
 *
 *     GHz/Gbps ratio = (%cpu × processor_speed) / throughput
 *
 * which reduces to cycles-per-bit when the link is the bottleneck
 * and to clock/throughput when the CPU saturates first.
 */

#ifndef HYDRA_NET_TCP_MODEL_HH
#define HYDRA_NET_TCP_MODEL_HH

#include <cstdint>
#include <vector>

namespace hydra::net {

/** Direction of the modeled TCP data path. */
enum class TcpDirection { Transmit, Receive };

/** Cost constants of the modeled host TCP stack. */
struct TcpCostModel
{
    double hostClockGhz = 2.4;
    double lineRateGbps = 1.0;

    /** Per-packet cycles: protocol, descriptor, interrupt amortized. */
    double txPerPacketCycles = 4000.0;
    double rxPerPacketCycles = 6200.0;

    /** Per-byte cycles: copy + checksum (+ cold misses on receive). */
    double txPerByteCycles = 4.0;
    double rxPerByteCycles = 6.5;
};

/** Result of evaluating the model at one packet size. */
struct TcpPathPoint
{
    std::size_t packetBytes = 0;
    /** Achieved throughput in Gbps (min of line rate, CPU limit). */
    double throughputGbps = 0.0;
    /** Host CPU utilization in [0, 1] at that throughput. */
    double cpuUtilization = 0.0;
    /** The paper's GHz/Gbps metric. */
    double ghzPerGbps = 0.0;
};

/** Evaluates the cost model across packet sizes (Fig. 1 sweep). */
class TcpPathModel
{
  public:
    explicit TcpPathModel(TcpCostModel costs = {});

    /** Evaluate one direction at one packet size. */
    TcpPathPoint evaluate(TcpDirection direction,
                          std::size_t packet_bytes) const;

    const TcpCostModel &costs() const { return costs_; }

  private:
    TcpCostModel costs_;
};

} // namespace hydra::net

#endif // HYDRA_NET_TCP_MODEL_HH
