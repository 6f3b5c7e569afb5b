/**
 * @file
 * Multi-host testbed (DESIGN.md §14): N modeled machines on one
 * shared Ethernet fabric and one Executor.
 *
 * The single-host HYDRA stack composes unchanged: every Host owns a
 * full hw::Machine, a ProgrammableNic on the shared net::Network, and
 * a core::Runtime whose ChannelExecutive is that host's *shard*. The
 * Fleet stitches the shards together:
 *
 *  - a consistent-hash PlacementRing maps stream keys to host
 *    indexes (see placement.hh);
 *  - each shard gets a remote site lookup that resolves any other
 *    host's site names; and
 *  - a "remote" ChannelProvider serves cross-machine channel pairs by
 *    framing messages over the host NICs — exactly one payload copy
 *    at the sender (header + body into the wire buffer, counted as
 *    channel.payload_copies{buffering=wire}); the receive side is a
 *    zero-copy slice of the delivered packet.
 *
 * Wire demultiplexing is QUIC-style: every host binds two well-known
 * fabric ports (device path and host path) and routes inbound frames
 * by the ChannelId carried in the header through a flat id table, so
 * port space never bounds the number of concurrent streams.
 */

#ifndef HYDRA_FLEET_FLEET_HH
#define HYDRA_FLEET_FLEET_HH

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/id_table.hh"
#include "core/runtime.hh"
#include "dev/nic.hh"
#include "exec/model_mutex.hh"
#include "fleet/placement.hh"
#include "hw/machine.hh"
#include "net/network.hh"

namespace hydra::fleet {

class Fleet;
class RemoteChannel;

/** Fabric port every host NIC answers on (device receive path). */
inline constexpr net::Port kFleetDevicePort = 9100;
/** Fabric port for host-path endpoints (DMA + interrupt on rx). */
inline constexpr net::Port kFleetHostPort = 9101;
/** Remote frame header: id(8) + from(4) + to(4) + seq(8) + sentAt(8). */
inline constexpr std::size_t kWireHeaderBytes = 32;

/** The header at the front of every remote frame. */
struct WireHeader
{
    core::ChannelId channel = core::kInvalidChannel;
    /** Sending and receiving endpoint indexes within the channel. */
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    /** Per (from, to) pair sequence number. */
    std::uint64_t seq = 0;
    /** Virtual send time, in ns. */
    std::uint64_t sentAt = 0;
};

/**
 * The one header codec: store @p header into the kWireHeaderBytes at
 * @p out, each field little-endian at its fixed offset.
 */
void writeWireHeader(std::uint8_t *out, const WireHeader &header);

/**
 * Load the header of a @p size -byte frame into @p out; false (and
 * nothing read) when the frame is shorter than kWireHeaderBytes.
 */
bool readWireHeader(const std::uint8_t *frame, std::size_t size,
                    WireHeader &out);

/** Fleet-wide construction parameters. */
struct FleetConfig
{
    std::size_t hosts = 4;
    /** Shared switched fabric (one Network instance). */
    net::NetworkConfig network;
    /** Per-host machine template; name/noiseSeed are set per host. */
    hw::MachineConfig machine;
    /**
     * Zero the OS noise sources (wakeup jitter, preemption) so scale
     * runs and the determinism check are reproducible; background
     * housekeeping still ticks when backgroundLoad is set.
     */
    bool quietHosts = true;
    bool backgroundLoad = false;
    std::uint64_t seed = 42;
    std::size_t vnodesPerHost = 64;
    dev::NicCosts nicCosts;
    core::RuntimeConfig runtime;
};

/**
 * One member machine: hw::Machine + ProgrammableNic + core::Runtime
 * (whose executive is this host's shard), plus the fabric routing
 * table inbound remote frames resolve against.
 */
class Host
{
  public:
    Host(exec::Executor &executor, net::Network &network,
         const FleetConfig &config, std::size_t index);
    ~Host();

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    const std::string &name() const { return name_; }
    std::size_t index() const { return index_; }
    hw::Machine &machine() { return *machine_; }
    core::Runtime &runtime() { return *runtime_; }
    dev::ProgrammableNic &nic() { return *nic_; }
    net::NodeId node() const { return node_; }
    core::ChannelExecutive &executive() { return runtime_->executive(); }

    /**
     * Worker site for this host's load driver (threaded engine: a
     * dedicated thread; sim engine: a named zero-delay lane). Not a
     * model CPU — it carries no attribution.
     */
    exec::SiteId driverSite() const { return driverSite_; }

    /** Frames whose ChannelId no longer routes (destroyed mid-flight). */
    std::uint64_t orphanFrames() const;

    /** Whether inbound frames naming @p id reach a channel here. */
    bool routes(core::ChannelId id) const;

    /**
     * Frames dropped as malformed: shorter than the wire header, or
     * naming an endpoint index the channel does not have.
     */
    std::uint64_t malformedFrames() const;

  private:
    friend class Fleet;
    friend class RemoteChannel;

    /** Register/remove a channel in the inbound routing table. */
    void addRoute(core::ChannelId id, RemoteChannel *channel);
    void removeRoute(core::ChannelId id);

    /** Both fabric ports land here; demux by the frame's ChannelId. */
    void onFabric(const net::Packet &packet);

    exec::Executor &exec_;
    std::size_t index_;
    std::string name_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<dev::ProgrammableNic> nic_;
    std::unique_ptr<core::Runtime> runtime_;
    net::NodeId node_ = net::kInvalidNode;
    hw::Addr fabricRxBuffer_ = 0;
    exec::SiteId driverSite_ = 0;

    /**
     * Inbound route table. Held across delivery so a concurrent
     * destroy (removeRoute in ~RemoteChannel) cannot free the channel
     * under the handler; consequently fabric handlers must not
     * destroy channels of the same host inline. A flat IdTable: a
     * stream's create and destroy each touch neighbouring slots, and
     * a frame naming id 0 finds nothing (an orphan).
     */
    mutable exec::ModelMutex fabricMutex_;
    IdTable<RemoteChannel *> routes_;
    std::uint64_t orphans_ = 0;
    std::uint64_t malformed_ = 0;
};

/** N hosts on one fabric + one executor, stitched into a fleet. */
class Fleet
{
  public:
    explicit Fleet(exec::Executor &executor, FleetConfig config = {});
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    exec::Executor &executor() { return exec_; }
    net::Network &network() { return *net_; }
    const FleetConfig &config() const { return config_; }

    std::size_t hostCount() const { return hosts_.size(); }
    Host &host(std::size_t index) { return *hosts_[index]; }
    /** Fleet member owning @p machine; nullptr for outside machines. */
    Host *hostOf(const hw::Machine &machine);

    const PlacementRing &placement() const { return ring_; }
    /** Consistent-hash home of a stream key. */
    Host &homeOf(std::string_view key);

    /**
     * Resolve a site name across every host (the shards' site
     * lookup): "host2.host", "host2-nic", or any attached device
     * name. The generic aliases ("host") stay host-local. One hash
     * lookup in the index built with the fleet; a miss scans every
     * host, so devices attached later still resolve.
     */
    core::ExecutionSite *findSite(const std::string &name);

  private:
    exec::Executor &exec_;
    FleetConfig config_;
    std::unique_ptr<net::Network> net_;
    std::vector<std::unique_ptr<Host>> hosts_;
    PlacementRing ring_;
    /** Site name -> site, for every site the hosts had when the fleet
     * was built; the first host wins a name, as the scan does.
     * Read-only after construction. */
    std::unordered_map<std::string, core::ExecutionSite *> siteIndex_;
};

} // namespace hydra::fleet

#endif // HYDRA_FLEET_FLEET_HH
