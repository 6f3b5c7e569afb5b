#include "dev/nic.hh"

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace hydra::dev {

DeviceConfig
ProgrammableNic::nicDefaultConfig()
{
    DeviceConfig config;
    config.name = "nic";
    config.firmwareGhz = 0.6;
    config.localMemoryBytes = 16 * 1024 * 1024;
    return config;
}

DeviceClassSpec
ProgrammableNic::nicClassSpec()
{
    DeviceClassSpec spec;
    spec.id = 0x0001;
    spec.name = "Network Device";
    spec.bus = "pci";
    spec.mac = "ethernet";
    spec.vendor = "3COM";
    return spec;
}

ProgrammableNic::ProgrammableNic(exec::Executor &executor,
                                 hw::Bus &host_bus, net::Network &network,
                                 net::NodeId node, DeviceConfig config,
                                 NicCosts costs)
    : Device(executor, host_bus, std::move(config), nicClassSpec()),
      net_(network), node_(node), costs_(costs), mutex_(executor)
{
    addCapability("mac-ethernet");
    addCapability("dma");
    addCapability("programmable");
}

ProgrammableNic::~ProgrammableNic()
{
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    for (net::Port port : netBound_)
        net_.unbind(node_, port);
}

Status
ProgrammableNic::bindPort(net::Port port, PortBinding binding)
{
    bool needWireBind = false;
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        if (bindings_.count(port))
            return Status(ErrorCode::AlreadyExists, "port already bound");
        needWireBind = netBound_.count(port) == 0;
    }
    if (needWireBind) {
        Status bound =
            net_.bind(node_, port, [this](const net::Packet &p) {
                onReceive(p);
            });
        if (!bound)
            return bound;
    }
    std::lock_guard<exec::ModelMutex> lock(mutex_);
    netBound_.insert(port);
    // A fresh bind supersedes any unbind deferred across a reset: the
    // restarted owner took the port back.
    deferredUnbind_.erase(port);
    bindings_[port] = std::move(binding);
    return Status::success();
}

Status
ProgrammableNic::bindHostPort(net::Port port, hw::OsKernel &os,
                              hw::Addr host_buffer,
                              net::PacketHandler handler)
{
    PortBinding binding;
    binding.hostPath = true;
    binding.os = &os;
    binding.hostBuffer = host_buffer;
    binding.handler = std::move(handler);
    return bindPort(port, std::move(binding));
}

Status
ProgrammableNic::bindDevicePort(net::Port port, net::PacketHandler handler)
{
    PortBinding binding;
    binding.hostPath = false;
    binding.handler = std::move(handler);
    return bindPort(port, std::move(binding));
}

void
ProgrammableNic::unbindPort(net::Port port)
{
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        bindings_.erase(port);
        if (resetting()) {
            // The caller is an Offcode dying with the firmware. Keep
            // the wire-level bind alive so in-flight packets queue in
            // pendingRx_ instead of vanishing as "no listener" drops;
            // the unbind is released on Complete unless a restarted
            // Offcode reclaims the port first.
            deferredUnbind_.insert(port);
            return;
        }
        netBound_.erase(port);
    }
    net_.unbind(node_, port);
}

void
ProgrammableNic::onResetBegin()
{
    // Wire-level binds survive (the link stays up); firmware-side
    // port state is torn down by the dying Offcodes' stop() paths,
    // whose unbinds are deferred above.
}

void
ProgrammableNic::onResetComplete()
{
    // Release unbinds for ports nobody reclaimed, then replay the rx
    // backlog in arrival order through the normal receive path.
    std::vector<net::Port> release;
    std::deque<net::Packet> replay;
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        for (net::Port port : deferredUnbind_) {
            if (bindings_.count(port))
                continue;
            netBound_.erase(port);
            release.push_back(port);
        }
        deferredUnbind_.clear();
        replay.swap(pendingRx_);
    }
    for (net::Port port : release)
        net_.unbind(node_, port);
    if (!replay.empty()) {
        LOG_INFO << name() << ": replaying " << replay.size()
                 << " packets queued during reset";
        obs::counter("nic.reset_rx_replayed", {{"device", name()}})
            .add(replay.size());
        chaos::ChaosEngine::recordRecovery("rx_replay");
    }
    for (net::Packet &packet : replay)
        onReceive(packet);
}

void
ProgrammableNic::onReceive(const net::Packet &packet)
{
    // Copy the binding out so the handler runs without the port lock
    // (handlers may bind/unbind ports or send).
    PortBinding binding;
    {
        std::lock_guard<exec::ModelMutex> lock(mutex_);
        if (resetting()) {
            // Firmware is down: hold the packet. The queue is bounded
            // the way a real rx ring is; past that, packets drop and
            // the loss is visible in a counter.
            if (pendingRx_.size() < kPendingRxMax) {
                pendingRx_.push_back(packet);
            } else {
                obs::counter("nic.reset_rx_dropped",
                             {{"device", name()}})
                    .increment();
            }
            return;
        }
        auto it = bindings_.find(packet.dstPort);
        if (it == bindings_.end())
            return;
        binding = it->second;
    }

    // Firmware classification runs on the NIC core either way.
    runFirmware(costs_.rxFirmwareCycles);

    if (!binding.hostPath) {
        ++toDevice_;
        binding.handler(packet);
        return;
    }

    // Host path: DMA payload to host memory, then interrupt.
    ++toHost_;
    const std::size_t bytes = packet.payload.size();
    hw::OsKernel *os = binding.os;
    const hw::Addr buffer = binding.hostBuffer;
    auto handler = binding.handler;
    dma().start(bytes, [this, os, buffer, bytes, handler,
                        pkt = packet]() mutable {
        // DMA completion runs from the scheduler; restore the
        // packet's causal context for the host-side handler.
        obs::ContextScope scope(pkt.traceCtx);
        os->dmaDelivered(buffer, bytes);
        os->handleInterrupt();
        handler(pkt);
    });
}

Status
ProgrammableNic::sendFromDevice(net::Packet packet)
{
    runFirmware(costs_.txFirmwareCycles);
    packet.src = node_;
    ++sent_;
    return net_.send(std::move(packet));
}

Status
ProgrammableNic::sendFromHost(net::Packet packet, hw::Addr host_buffer)
{
    (void)host_buffer; // the cache/copy interaction is the caller's
    packet.src = node_;
    const std::uint64_t bytes = packet.payload.size();
    ++sent_;

    // One bus crossing host -> device, then firmware tx processing,
    // then the wire. Carry the sender's causal context across the
    // asynchronous DMA hop.
    const obs::SpanContext ctx = obs::activeContext();
    dma().start(bytes, [this, ctx, pkt = std::move(packet)]() mutable {
        obs::ContextScope scope(ctx);
        runFirmware(costs_.txFirmwareCycles);
        Status sent = net_.send(std::move(pkt));
        if (!sent) {
            LOG_DEBUG << "nic tx failed: " << sent.error().describe();
        }
    });
    return Status::success();
}

} // namespace hydra::dev
