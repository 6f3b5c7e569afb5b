/**
 * @file
 * The HYDRA runtime — the Offloading Access Layer (paper Section 4).
 *
 * One Runtime instance exists per host machine. It owns the Offcode
 * Depot, Channel Executive, Resource and Layout Management units,
 * per-device loaders, and the deployed Offcode instances. The
 * deployment pipeline implements the paper's Fig. 5 control flow:
 * process ODFs -> build offloading layout graph -> resolve device
 * mapping -> adapt/link -> offload -> two-phase initialization.
 *
 * Pseudo Offcodes "hydra.Runtime", "hydra.Heap" and
 * "hydra.ChannelExecutive" are pre-registered and deployed at the
 * host, exactly as in the paper.
 */

#ifndef HYDRA_CORE_RUNTIME_HH
#define HYDRA_CORE_RUNTIME_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/depot.hh"
#include "core/executive.hh"
#include "core/layout.hh"
#include "core/loader.hh"
#include "core/offcode.hh"
#include "core/proxy.hh"
#include "core/resource.hh"

namespace hydra::core {

/** Reference to a deployed Offcode. */
struct OffcodeHandle
{
    Offcode *offcode = nullptr;
    ExecutionSite *site = nullptr;

    bool valid() const { return offcode != nullptr; }
    std::string deviceAddr() const { return site ? site->name() : ""; }
};

/** Runtime configuration. */
struct RuntimeConfig
{
    ResolverConfig resolver;
    /** Bus supports single-transaction multicast (PCIe-style). */
    bool busMulticast = false;
    LoaderCosts loaderCosts;

    /**
     * Per-bindname resource quotas, applied when the Offcode is
     * deployed. A memory quota smaller than the depot image fails the
     * deployment outright (`offcode.quota_rejections{resource=memory}`);
     * the CPU budget drives the budget-slice scheduler at dispatch.
     */
    std::map<std::string, OffcodeQuota> quotas;

    /**
     * Watchdog: an Offcode that is Started, has channel backlog
     * waiting, and has not handled a message for this long (simulated)
     * is killed and restarted with state handoff. 0 disables the
     * watchdog (the default — existing runs see no extra events).
     */
    sim::SimTime watchdogLimitNs = 0;
    /** Sweep period for the watchdog task. */
    sim::SimTime watchdogPeriodNs = sim::seconds(1);
};

/** Aggregate deployment statistics. */
struct RuntimeStats
{
    std::size_t offcodesDeployed = 0;
    std::size_t offloadedCount = 0;
    std::size_t hostPlacedCount = 0;
    std::size_t deploymentsCompleted = 0;
    std::size_t deploymentsFailed = 0;
};

/** One deployed Offcode's introspection record (paper: the OOB
 * channel is the runtime's window into a remote Offcode). */
struct OffcodeIntrospection
{
    std::string bindname;
    std::string site;
    bool isHost = true;
    std::string state;
    OffcodeTelemetry telemetry;
    /** Simulated ns since the Offcode last handled a message; the
     * watchdog signal. Age since boot when it never handled one. */
    sim::SimTime watchdogAgeNs = 0;
    /** Messages waiting unread on the OOB channel. */
    std::size_t oobQueued = 0;
    std::uint64_t oobDelivered = 0;
};

/** Point-in-time snapshot over every deployed Offcode. */
struct IntrospectionSnapshot
{
    std::string machine;
    sim::SimTime now = 0;
    std::vector<OffcodeIntrospection> offcodes;
};

/** The Offloading Access Layer. */
class Runtime
{
  public:
    using DeployCallback = std::function<void(Result<OffcodeHandle>)>;

    explicit Runtime(hw::Machine &machine, RuntimeConfig config = {});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    // --- topology ---
    /** Register a programmable device as an offload target. */
    Status attachDevice(dev::Device &device,
                        double link_capacity_gbps = 8.0);

    hw::Machine &machine() { return machine_; }
    HostSite &hostSite() { return *hostSite_; }
    ExecutionSite *siteByName(const std::string &name);
    std::vector<SiteInfo> placementSites();

    // --- subsystems ---
    OffcodeDepot &depot() { return depot_; }
    ChannelExecutive &executive() { return *executive_; }
    ResourceManager &resources() { return resources_; }
    const RuntimeConfig &config() const { return config_; }
    const RuntimeStats &stats() const { return stats_; }

    // --- deployment (paper: CreateOffcode) ---
    /**
     * Deploy the Offcode named by @p odf_reference (a depot bindname
     * or an ODF file path) together with its transitive imports,
     * placing each per the resolved offloading layout. Asynchronous:
     * @p done fires with the root Offcode's handle after every
     * member Offcode is loaded, initialized and started.
     *
     * Offcodes already deployed are reused, as the paper's model
     * encourages ("a single Decoder could be used instead of
     * duplicating the component").
     */
    void createOffcode(const std::string &odf_reference,
                       DeployCallback done);

    /** Look up a deployed (or pseudo) Offcode by bindname. */
    Result<OffcodeHandle> getOffcode(const std::string &bindname);

    // --- firmware OS hardening (restart-with-state-handoff) ---
    /**
     * Kill and redeploy a deployed Offcode in place, carrying its
     * state across: snapshotState() on the old instance, channel
     * endpoints quiesced (inbound messages queue), old instance
     * stopped, a fresh instance built from the same depot entry,
     * initialized with the same context, restoreState()d, started,
     * and finally rebound to every channel — which replays the
     * backlog that queued during the outage, in order. Counted in
     * `offcode.restarts{offcode=}`. The watchdog and device reset
     * recovery both funnel through this path.
     */
    Status restartOffcode(const std::string &bindname);

    // --- invocation convenience ---
    /**
     * Invoke a method on a deployed Offcode through its OOB channel
     * (management path; create a dedicated channel for data paths).
     */
    Status invokeAsync(const std::string &bindname,
                       const std::string &method, const Bytes &arguments,
                       Proxy::ReturnCallback on_return);

    /** The OOB channel of a deployed Offcode (creator side). */
    Result<Channel *> oobChannelOf(const std::string &bindname);

    // --- introspection (hydra.Monitor answers from these) ---
    /** Snapshot per-Offcode stats, health and queue depths. */
    IntrospectionSnapshot introspect() const;

    /** introspect() rendered as a machine-readable JSON object. */
    std::string introspectJson() const;

  private:
    struct Deployed
    {
        std::unique_ptr<Offcode> instance;
        ExecutionSite *site = nullptr;
        const DepotEntry *entry = nullptr;
        Channel *oob = nullptr;
        std::unique_ptr<Proxy> controlProxy;
        ResourceId resource = kNoResource;
        /** State captured at outage begin, consumed at restart. */
        Bytes restartSnapshot;
        /** Between beginOffcodeOutage and completeOffcodeRestart. */
        bool outage = false;
        std::uint64_t restarts = 0;
    };

    void registerPseudoOffcodes();
    Result<Channel *> makeOobChannel(ExecutionSite &site);
    OffcodeLoader *loaderFor(ExecutionSite &site);

    /**
     * Phase one of a restart: snapshot the instance's state, quiesce
     * its channel endpoints (messages queue from here on), and stop
     * it. The device may be mid-reset — port unbinds issued by stop()
     * are deferred by the NIC until the reset completes.
     */
    void beginOffcodeOutage(const std::string &bindname, Deployed &dep);

    /**
     * Phase two: build the successor from the depot entry, hand it
     * the snapshot, and cut the channels over (draining the queued
     * backlog into it). On failure the Offcode stays down (outage
     * remains set) and the error is returned.
     */
    Status completeOffcodeRestart(const std::string &bindname,
                                  Deployed &dep);

    /** Restart every Started Offcode that is wedged (see config). */
    void watchdogSweep();
    void scheduleWatchdog();

    /** Deploy every not-yet-deployed node of @p graph, then start. */
    void deployGraph(LayoutGraph graph, DeployCallback done);

    /** Deploy one node; calls done when initialized (not started). */
    void deployNode(const DepotEntry &entry, ExecutionSite &site,
                    std::function<void(Status)> done);

    hw::Machine &machine_;
    RuntimeConfig config_;
    std::unique_ptr<HostSite> hostSite_;
    std::unique_ptr<HostLoader> hostLoader_;

    struct AttachedDevice
    {
        dev::Device *device = nullptr;
        std::unique_ptr<DeviceSite> site;
        std::unique_ptr<DeviceDmaLoader> loader;
        double linkCapacityGbps = 0.0;
    };
    std::vector<AttachedDevice> devices_;

    OffcodeDepot depot_;
    ResourceManager resources_;
    std::unique_ptr<ChannelExecutive> executive_;
    LayoutResolver resolver_;

    std::map<std::string, Deployed> deployed_;
    RuntimeStats stats_;
    /** Cleared by the destructor so in-flight watchdog events and
     * device reset listeners become no-ops instead of use-after-free
     * when the executor outlives the runtime. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace hydra::core

#endif // HYDRA_CORE_RUNTIME_HH
