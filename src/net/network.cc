#include "net/network.hh"

#include <algorithm>
#include <cassert>

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::net {

namespace {

struct NetMetrics
{
    obs::Counter &sent = obs::counter("net.packets_sent");
    obs::Counter &delivered = obs::counter("net.packets_delivered");
    obs::Counter &dropped = obs::counter("net.packets_dropped");
    obs::Counter &bytes = obs::counter("net.bytes_delivered");
    /** Reserved: the fabric models lossy UDP, nothing retransmits
     * today; registered so dashboards see an explicit zero. */
    obs::Counter &retransmits = obs::counter("net.retransmits");
    obs::Histogram &flightNs = obs::histogram("net.flight_ns");
};

NetMetrics &
netMetrics()
{
    static NetMetrics metrics;
    return metrics;
}

} // namespace

Network::Network(exec::Executor &executor, NetworkConfig config)
    : exec_(executor), config_(config), mutex_(executor), rng_(config.seed)
{
}

NodeId
Network::addNode(std::string name)
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    nodes_.push_back(Node{std::move(name), 0, 0, {}});
    return static_cast<NodeId>(nodes_.size() - 1);
}

Status
Network::bind(NodeId node, Port port, PacketHandler handler)
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    if (node >= nodes_.size())
        return Status(ErrorCode::NotFound, "no such node");
    auto &handlers = nodes_[node].handlers;
    if (handlers.count(port))
        return Status(ErrorCode::AlreadyExists, "port already bound");
    handlers[port] = std::move(handler);
    return Status::success();
}

void
Network::unbind(NodeId node, Port port)
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    if (node < nodes_.size())
        nodes_[node].handlers.erase(port);
}

std::string
Network::nodeName(NodeId node) const
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    return node < nodes_.size() ? nodes_[node].name : "<unknown>";
}

std::size_t
Network::nodeCount() const
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    return nodes_.size();
}

NetworkStats
Network::stats() const
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    return stats_;
}

Status
Network::send(Packet packet)
{
    packet.sentAt = exec_.now();
    if (!packet.traceCtx.valid())
        packet.traceCtx = obs::activeContext();

    sim::SimTime delivered = 0;
    sim::SimTime duplicateAt = 0;
    chaos::ChaosEngine &chaosEngine = chaos::ChaosEngine::instance();
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        if (packet.src >= nodes_.size() || packet.dst >= nodes_.size())
            return Status(ErrorCode::NetworkUnreachable, "bad address");
        if (packet.payload.size() > config_.maxPayload)
            return Status(ErrorCode::MessageTooLarge,
                          "payload too large");

        ++stats_.packetsSent;
        netMetrics().sent.increment();

        if (config_.dropProbability > 0.0 &&
            (config_.lossPort == 0 ||
             packet.dstPort == config_.lossPort) &&
            rng_.chance(config_.dropProbability)) {
            ++stats_.packetsDropped;
            netMetrics().dropped.increment();
            return Status::success(); // datagram loss is silent
        }

        if (chaosEngine.enabled()) {
            if (chaosEngine.dropPacket(packet.sentAt)) {
                ++stats_.packetsDropped;
                netMetrics().dropped.increment();
                return Status::success(); // injected loss is silent too
            }
            if (chaosEngine.corruptPacket(packet.sentAt) &&
                packet.payload.size() > 0) {
                // Payload buffers are immutable and shared; corrupting
                // the wire copy means a deliberate deep copy.
                Bytes bytes = packet.payload.toBytes();
                bytes[chaosEngine.corruptByteIndex(bytes.size())] ^= 0x01;
                packet.payload = Payload(std::move(bytes));
            }
        }

        // Serialize on the sender's uplink.
        Node &src = nodes_[packet.src];
        const sim::SimTime wire =
            sim::transferTime(packet.wireBytes(), config_.linkGbps);
        const sim::SimTime tx_start =
            std::max(packet.sentAt, src.txFreeAt);
        src.txFreeAt = tx_start + wire;

        // Propagate, switch, then serialize on the receiver's
        // downlink.
        Node &dst = nodes_[packet.dst];
        const sim::SimTime arrive_at_switch =
            src.txFreeAt + config_.linkLatency + config_.switchLatency;
        const sim::SimTime rx_start =
            std::max(arrive_at_switch, dst.rxFreeAt);
        dst.rxFreeAt = rx_start + wire;
        delivered = dst.rxFreeAt + config_.linkLatency;

        if (chaosEngine.enabled() &&
            chaosEngine.duplicatePacket(packet.sentAt)) {
            // The duplicate serializes behind the original on both
            // links, exactly as a retransmitted datagram would.
            const sim::SimTime tx2 =
                std::max(packet.sentAt, src.txFreeAt);
            src.txFreeAt = tx2 + wire;
            const sim::SimTime arrive2 =
                src.txFreeAt + config_.linkLatency + config_.switchLatency;
            const sim::SimTime rx2 = std::max(arrive2, dst.rxFreeAt);
            dst.rxFreeAt = rx2 + wire;
            duplicateAt = dst.rxFreeAt + config_.linkLatency;
            ++stats_.packetsSent;
            netMetrics().sent.increment();
        }
    }

    if (duplicateAt != 0) {
        exec_.scheduleAt(duplicateAt, [this, pkt = packet]() mutable {
            deliver(std::move(pkt));
        });
    }
    exec_.scheduleAt(delivered, [this, pkt = std::move(packet)]() mutable {
        deliver(std::move(pkt));
    });
    return Status::success();
}

void
Network::deliver(Packet packet)
{
    PacketHandler handler;
    {
        // Copy the handler out so the receive path (which may re-enter
        // send()) runs without the fabric lock.
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        Node &dst = nodes_[packet.dst];
        auto it = dst.handlers.find(packet.dstPort);
        if (it == dst.handlers.end()) {
            ++stats_.packetsDropped;
            netMetrics().dropped.increment();
            LOG_DEBUG << "packet to " << dst.name << ":"
                      << packet.dstPort << " dropped (no listener)";
            return;
        }
        handler = it->second;
        ++stats_.packetsDelivered;
        stats_.bytesDelivered += packet.payload.size();
    }
    NetMetrics &metrics = netMetrics();
    metrics.delivered.increment();
    metrics.bytes.add(packet.payload.size());
    metrics.flightNs.record(exec_.now() - packet.sentAt);
    // Restore the sender's causal context for the receive path; the
    // wire transfer itself is a span on the fabric's lane.
    obs::ContextScope scope(packet.traceCtx);
    obs::Span span;
    if (HYDRA_TRACE_ACTIVE())
        span.open("network", nodeName(packet.dst), "net.xfer", "net",
                  packet.sentAt);
    span.end(exec_.now());
    handler(packet);
}

} // namespace hydra::net
