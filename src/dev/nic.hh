/**
 * @file
 * Programmable network interface card (the paper's 3Com 3C985B).
 *
 * Two receive paths exist per port:
 *  - the host path: firmware classifies the packet, DMAs the payload
 *    into a host buffer (one bus crossing, cache lines invalidated),
 *    raises an interrupt, and the host handler runs; and
 *  - the device path: a device-resident handler (an Offcode deployed
 *    onto the NIC) consumes the packet entirely in firmware — no bus
 *    crossing and no host involvement, the crux of the paper.
 */

#ifndef HYDRA_DEV_NIC_HH
#define HYDRA_DEV_NIC_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "dev/device.hh"
#include "exec/model_mutex.hh"
#include "hw/os.hh"
#include "net/network.hh"

namespace hydra::dev {

/** NIC-specific cost constants. */
struct NicCosts
{
    /** Firmware cycles to classify/process one packet. */
    std::uint64_t rxFirmwareCycles = 1200;
    std::uint64_t txFirmwareCycles = 1000;
};

/** Programmable NIC attached to a host bus and a network node. */
class ProgrammableNic : public Device
{
  public:
    ProgrammableNic(exec::Executor &executor, hw::Bus &host_bus,
                    net::Network &network, net::NodeId node,
                    DeviceConfig config = nicDefaultConfig(),
                    NicCosts costs = {});
    ~ProgrammableNic() override;

    static DeviceConfig nicDefaultConfig();
    static DeviceClassSpec nicClassSpec();

    net::NodeId nodeId() const { return node_; }
    net::Network &network() { return net_; }

    /**
     * Host receive path: packets to @p port are DMA'd into
     * @p host_buffer (allocated from the host OS address space) and
     * @p handler runs after the host interrupt. Requires a host OS.
     */
    Status bindHostPort(net::Port port, hw::OsKernel &os,
                        hw::Addr host_buffer, net::PacketHandler handler);

    /** Device receive path: @p handler runs on NIC firmware. */
    Status bindDevicePort(net::Port port, net::PacketHandler handler);

    void unbindPort(net::Port port);

    /** Transmit a packet assembled in device memory (no crossing). */
    Status sendFromDevice(net::Packet packet);

    /**
     * Transmit a packet whose payload lives in host memory: one DMA
     * crossing device-ward, then the wire. The DMA reads host memory
     * without the CPU, so the caller models any copy that staged the
     * payload in the host cache.
     */
    Status sendFromHost(net::Packet packet);

    std::uint64_t packetsToHost() const { return toHost_; }
    std::uint64_t packetsToDevice() const { return toDevice_; }
    std::uint64_t packetsSent() const { return sent_; }

  protected:
    /**
     * Reset semantics: the PHY/MAC stays up (the wire-level bind with
     * the fabric survives, as a real NIC's link does across a
     * function-level reset), but firmware-owned port state is in
     * flux. Packets arriving while down are held in a bounded rx
     * queue; unbinds requested by dying Offcodes are deferred so a
     * restarted Offcode re-binding the same port hands the stream
     * over without the fabric ever seeing an unbound port.
     */
    void onResetBegin() override;
    void onResetComplete() override;

  private:
    struct PortBinding
    {
        bool hostPath = false;
        hw::OsKernel *os = nullptr;
        hw::Addr hostBuffer = 0;
        net::PacketHandler handler;
    };

    void onReceive(const net::Packet &packet);

    net::Network &net_;
    net::NodeId node_;
    NicCosts costs_;
    /**
     * Port table lock: a fleet binds one port per remote channel
     * endpoint while the threaded executor is delivering to others, so
     * bind/unbind/receive-lookup must serialize (on the sim engine the
     * lock is free). onReceive copies the binding out and runs the
     * handler unlocked.
     */
    Status bindPort(net::Port port, PortBinding binding);

    static constexpr std::size_t kPendingRxMax = 16384;

    mutable exec::ModelMutex mutex_;
    std::map<net::Port, PortBinding> bindings_;
    /** Ports with a live wire-level bind on the fabric node. */
    std::set<net::Port> netBound_;
    /** Unbinds deferred while resetting (released on Complete). */
    std::set<net::Port> deferredUnbind_;
    /** Packets that arrived while the firmware was down. */
    std::deque<net::Packet> pendingRx_;
    std::atomic<std::uint64_t> toHost_{0};
    std::atomic<std::uint64_t> toDevice_{0};
    std::atomic<std::uint64_t> sent_{0};
};

} // namespace hydra::dev

#endif // HYDRA_DEV_NIC_HH
