#include "core/runtime.hh"

#include <memory>
#include <sstream>
#include <string_view>

#include "chaos/chaos.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "dev/device.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"

namespace hydra::core {

namespace {

/** "hydra.Runtime" pseudo Offcode: runtime services by interface. */
class RuntimePseudoOffcode : public Offcode
{
  public:
    explicit RuntimePseudoOffcode(Runtime &runtime)
        : Offcode("hydra.Runtime"), rt_(runtime)
    {
        registerMethod("GetOffcode", [this](const Bytes &args) {
            return getOffcode(args);
        });
        registerMethod("Ping", [](const Bytes &) -> Result<Bytes> {
            return Bytes{'p', 'o', 'n', 'g'};
        });
    }

  private:
    Result<Bytes>
    getOffcode(const Bytes &args)
    {
        ByteReader reader(args);
        auto name = reader.readString();
        if (!name)
            return Error(ErrorCode::InvalidArgument, "expected bindname");
        auto handle = rt_.getOffcode(name.value());
        if (!handle)
            return handle.error();
        Bytes out;
        ByteWriter writer(out);
        writer.writeU64(handle.value().offcode->guid().value());
        writer.writeString(handle.value().deviceAddr());
        return out;
    }

    Runtime &rt_;
};

/** "hydra.Heap" pseudo Offcode: OS memory routines. */
class HeapPseudoOffcode : public Offcode
{
  public:
    explicit HeapPseudoOffcode(Runtime &runtime)
        : Offcode("hydra.Heap"), rt_(runtime)
    {
        registerMethod("Allocate", [this](const Bytes &args) {
            return allocate(args);
        });
    }

  private:
    Result<Bytes>
    allocate(const Bytes &args)
    {
        ByteReader reader(args);
        auto bytes = reader.readU64();
        if (!bytes || bytes.value() == 0)
            return Error(ErrorCode::InvalidArgument, "expected size");
        const hw::Addr addr = rt_.machine().os().allocRegion(bytes.value());
        Bytes out;
        ByteWriter writer(out);
        writer.writeU64(addr);
        return out;
    }

    Runtime &rt_;
};

/** "hydra.ChannelExecutive" pseudo Offcode. */
class ExecutivePseudoOffcode : public Offcode
{
  public:
    explicit ExecutivePseudoOffcode(Runtime &runtime)
        : Offcode("hydra.ChannelExecutive"), rt_(runtime)
    {
        registerMethod("ProviderNames",
                       [this](const Bytes &) -> Result<Bytes> {
                           Bytes out;
                           ByteWriter writer(out);
                           const auto names =
                               rt_.executive().providerNames();
                           writer.writeU32(static_cast<std::uint32_t>(
                               names.size()));
                           for (const auto &name : names)
                               writer.writeString(name);
                           return out;
                       });
    }

  private:
    Runtime &rt_;
};

/**
 * "hydra.Monitor" pseudo Offcode: the introspection protocol on the
 * OOB channel. Stats answers with the full per-Offcode snapshot,
 * Health with a compact watchdog view, Spans with the tracer state.
 */
class MonitorPseudoOffcode : public Offcode
{
  public:
    explicit MonitorPseudoOffcode(Runtime &runtime)
        : Offcode("hydra.Monitor"), rt_(runtime)
    {
        registerMethod("Stats", [this](const Bytes &) -> Result<Bytes> {
            const std::string json = rt_.introspectJson();
            return Bytes(json.begin(), json.end());
        });
        registerMethod("Health", [this](const Bytes &) -> Result<Bytes> {
            return health();
        });
        registerMethod("Spans", [](const Bytes &) -> Result<Bytes> {
            return spans();
        });
        // Flight streams the recorder's snapshot ring. The argument,
        // when present, is a decimal snapshot count; the default tail
        // keeps the reply inside the OOB channel's 8 KiB message cap.
        registerMethod("Flight", [](const Bytes &args) -> Result<Bytes> {
            std::size_t tail = 6;
            if (!args.empty()) {
                std::size_t parsed = 0;
                bool numeric = true;
                for (unsigned char c : args) {
                    if (c < '0' || c > '9') {
                        numeric = false;
                        break;
                    }
                    parsed = parsed * 10 + (c - '0');
                }
                if (numeric && parsed > 0)
                    tail = parsed;
            }
            const std::string json =
                obs::FlightRecorder::instance().toJson(tail);
            return Bytes(json.begin(), json.end());
        });
        // Slo reports the watchdog's rule table and violation counts.
        registerMethod("Slo", [](const Bytes &) -> Result<Bytes> {
            const std::string json = obs::SloEngine::instance().toJson();
            return Bytes(json.begin(), json.end());
        });
    }

  private:
    /** An Offcode silent this long (simulated) is flagged unhealthy. */
    static constexpr sim::SimTime kWatchdogLimitNs =
        sim::seconds(5);

    Result<Bytes>
    health()
    {
        const IntrospectionSnapshot snap = rt_.introspect();
        std::ostringstream out;
        out << "{\"machine\":";
        json::writeString(out, snap.machine);
        out << ",\"now_ns\":" << snap.now << ",\"offcodes\":[";
        bool first = true;
        for (const OffcodeIntrospection &oc : snap.offcodes) {
            if (!first)
                out << ",";
            first = false;
            const bool healthy = oc.state == "Started" &&
                                 oc.watchdogAgeNs < kWatchdogLimitNs;
            out << "{\"bindname\":";
            json::writeString(out, oc.bindname);
            out << ",\"state\":";
            json::writeString(out, oc.state);
            out << ",\"watchdog_age_ns\":" << oc.watchdogAgeNs
                << ",\"healthy\":" << (healthy ? "true" : "false")
                << "}";
        }
        out << "]}";
        const std::string json = out.str();
        return Bytes(json.begin(), json.end());
    }

    static Result<Bytes>
    spans()
    {
        auto &tracer = obs::Tracer::instance();
        std::ostringstream out;
        out << "{\"enabled\":" << (tracer.enabled() ? "true" : "false")
            << ",\"events\":" << tracer.eventsRecorded()
            << ",\"overwritten\":" << tracer.eventsOverwritten()
            << ",\"capacity\":" << tracer.capacity() << "}";
        const std::string json = out.str();
        return Bytes(json.begin(), json.end());
    }

    Runtime &rt_;
};

/** Minimal ODF for a host-resident pseudo Offcode. */
std::string
pseudoOdf(const std::string &bindname)
{
    return "<offcode><package><bindname>" + bindname +
           "</bindname></package>"
           "<targets><host-fallback/></targets></offcode>";
}

} // namespace

Runtime::Runtime(hw::Machine &machine, RuntimeConfig config)
    : machine_(machine), config_(config), resolver_(config.resolver)
{
    hostSite_ = std::make_unique<HostSite>(machine_);
    hostLoader_ =
        std::make_unique<HostLoader>(machine_, config_.loaderCosts);
    executive_ = std::make_unique<ChannelExecutive>(
        machine_.executor(),
        [this](const std::string &name) { return siteByName(name); },
        machine_.name());
    executive_->registerProvider(
        std::make_unique<LocalChannelProvider>(machine_.executor()));
    executive_->registerProvider(std::make_unique<DmaRingChannelProvider>(
        machine_.executor(), config_.busMulticast));

    registerPseudoOffcodes();
    scheduleWatchdog();
}

Runtime::~Runtime()
{
    // Neutralize in-flight watchdog events and device reset
    // listeners; the executor (and attached devices) may outlive us.
    *alive_ = false;
    // Stop everything deliberately (children before parents is
    // handled by the resource tree; map order is fine here because
    // each entry owns an independent subtree).
    for (auto &[name, dep] : deployed_)
        if (dep.instance)
            dep.instance->doStop();
}

void
Runtime::registerPseudoOffcodes()
{
    struct PseudoSpec
    {
        std::string bindname;
        std::function<std::unique_ptr<Offcode>(Runtime &)> make;
    };
    const PseudoSpec specs[] = {
        {"hydra.Runtime",
         [](Runtime &rt) {
             return std::make_unique<RuntimePseudoOffcode>(rt);
         }},
        {"hydra.Heap",
         [](Runtime &rt) {
             return std::make_unique<HeapPseudoOffcode>(rt);
         }},
        {"hydra.ChannelExecutive",
         [](Runtime &rt) {
             return std::make_unique<ExecutivePseudoOffcode>(rt);
         }},
        {"hydra.Monitor",
         [](Runtime &rt) {
             return std::make_unique<MonitorPseudoOffcode>(rt);
         }},
    };

    for (const PseudoSpec &spec : specs) {
        Status registered = depot_.registerOffcode(
            pseudoOdf(spec.bindname),
            [this, make = spec.make]() { return make(*this); },
            /*image_bytes=*/4096);
        if (!registered) {
            LOG_ERROR << "pseudo offcode registration failed: "
                      << registered.error().describe();
            continue;
        }
        // Pseudo Offcodes deploy eagerly and synchronously on the
        // host; they are part of the runtime itself.
        auto entry = depot_.findByBindname(spec.bindname);
        Deployed dep;
        dep.entry = entry.value();
        dep.site = hostSite_.get();
        dep.instance = entry.value()->factory();

        auto oob = makeOobChannel(*hostSite_);
        if (oob)
            dep.oob = oob.value();

        OffcodeContext ctx;
        ctx.runtime = this;
        ctx.site = hostSite_.get();
        ctx.oobChannel = dep.oob;
        auto resource = resources_.create(resources_.root());
        ctx.resource = resource ? resource.value() : kNoResource;
        dep.resource = ctx.resource;

        dep.instance->doInitialize(ctx);
        if (dep.oob)
            dep.oob->connectOffcode(*dep.instance);
        dep.instance->doStart();
        deployed_[spec.bindname] = std::move(dep);
    }
}

Status
Runtime::attachDevice(dev::Device &device, double link_capacity_gbps)
{
    for (const AttachedDevice &attached : devices_)
        if (attached.device == &device ||
            attached.device->name() == device.name())
            return Status(ErrorCode::AlreadyExists,
                          "device already attached: " + device.name());

    AttachedDevice attached;
    attached.device = &device;
    attached.site = std::make_unique<DeviceSite>(machine_, device);
    attached.loader = std::make_unique<DeviceDmaLoader>(
        machine_, device, config_.loaderCosts);
    attached.linkCapacityGbps = link_capacity_gbps;

    // Recovery protocol: when the device firmware resets, every
    // Offcode deployed on it goes through restart-with-state-handoff.
    // At Begin the instances snapshot and quiesce (their channel
    // backlog queues); at Complete — before the device replays its
    // own rx backlog — fresh instances are rebound so nothing that
    // arrived during the outage is lost.
    ExecutionSite *site = attached.site.get();
    device.addResetListener([this, alive = alive_, site](
                                dev::Device &dev,
                                dev::Device::ResetPhase phase) {
        if (!*alive)
            return;
        if (phase == dev::Device::ResetPhase::Begin) {
            for (auto &[bindname, dep] : deployed_)
                if (dep.site == site && dep.instance && !dep.outage)
                    beginOffcodeOutage(bindname, dep);
            return;
        }
        for (auto &[bindname, dep] : deployed_) {
            if (dep.site != site || !dep.outage)
                continue;
            Status restarted = completeOffcodeRestart(bindname, dep);
            if (!restarted) {
                LOG_ERROR << dev.name() << ": " << bindname
                          << " restart after reset failed: "
                          << restarted.error().describe();
            }
        }
    });

    devices_.push_back(std::move(attached));
    return Status::success();
}

ExecutionSite *
Runtime::siteByName(const std::string &name)
{
    // std::string_view compares lengths before bytes.
    if (name == hostSite_->name() || std::string_view(name) == "host")
        return hostSite_.get();
    for (const AttachedDevice &attached : devices_)
        if (attached.site->name() == name)
            return attached.site.get();
    return nullptr;
}

std::vector<SiteInfo>
Runtime::placementSites()
{
    std::vector<SiteInfo> sites;
    sites.push_back(SiteInfo{hostSite_.get(), nullptr, 1e9});
    for (const AttachedDevice &attached : devices_)
        sites.push_back(SiteInfo{attached.site.get(), attached.device,
                                 attached.linkCapacityGbps});
    return sites;
}

Result<Channel *>
Runtime::makeOobChannel(ExecutionSite &site)
{
    // The OOB channel is the default, non-performance-critical
    // management pathway: copying buffers, shallow rings.
    ChannelConfig config;
    config.type = ChannelConfig::Type::Unicast;
    config.reliable = true;
    config.buffering = ChannelConfig::Buffering::Copying;
    config.ringDepth = 16;
    config.maxMessageBytes = 8 * 1024;
    config.targetDevice = site.name();
    // One latency series per (machine, target site) pair of OOB lanes.
    config.name = "oob." + machine_.name() + "." + site.name();
    return executive_->createChannel(config, *hostSite_, 512);
}

OffcodeLoader *
Runtime::loaderFor(ExecutionSite &site)
{
    if (site.isHost())
        return hostLoader_.get();
    for (const AttachedDevice &attached : devices_)
        if (attached.site.get() == &site)
            return attached.loader.get();
    return nullptr;
}

void
Runtime::deployNode(const DepotEntry &entry, ExecutionSite &site,
                    std::function<void(Status)> done)
{
    OffcodeLoader *loader = loaderFor(site);
    if (!loader) {
        done(Status(ErrorCode::NotFound,
                    "no loader for site " + site.name()));
        return;
    }

    loader->load(entry, [this, &entry, &site, loader,
                         done = std::move(done)](Status loaded) {
        if (!loaded) {
            done(loaded);
            return;
        }

        Deployed dep;
        dep.entry = &entry;
        dep.site = &site;
        dep.instance = entry.factory();
        if (!dep.instance) {
            done(Status(ErrorCode::Internal, "factory returned null"));
            return;
        }

        const std::string bindname = entry.manifest.bindname;

        // Quotas (firmware OS discipline): an image that does not fit
        // the memory quota never deploys; the CPU budget arms the
        // budget-slice scheduler for every dispatch from here on.
        auto quotaIt = config_.quotas.find(bindname);
        if (quotaIt != config_.quotas.end()) {
            const OffcodeQuota &quota = quotaIt->second;
            if (quota.memoryBytes > 0 &&
                entry.imageBytes > quota.memoryBytes) {
                obs::counter("offcode.quota_rejections",
                             {{"offcode", bindname},
                              {"resource", "memory"}})
                    .increment();
                done(Status(ErrorCode::ResourceExhausted,
                            bindname + ": image exceeds memory quota"));
                return;
            }
            dep.instance->setQuota(quota);
        }

        auto oob = makeOobChannel(site);
        if (!oob) {
            done(Status(oob.error()));
            return;
        }
        dep.oob = oob.value();

        Channel *oobChannel = dep.oob;

        // The release callback resolves the instance through
        // deployed_ at release time: a restart-with-state-handoff
        // swaps dep.instance, so a captured raw pointer would dangle.
        auto resource = resources_.create(
            resources_.root(),
            [this, bindname, oobChannel, loader, &entry]() {
                auto dit = deployed_.find(bindname);
                if (dit != deployed_.end() && dit->second.instance)
                    dit->second.instance->doStop();
                executive_->destroyChannel(oobChannel);
                loader->unload(entry);
            });
        if (!resource) {
            done(Status(resource.error()));
            return;
        }
        dep.resource = resource.value();

        OffcodeContext ctx;
        ctx.runtime = this;
        ctx.site = &site;
        ctx.oobChannel = dep.oob;
        ctx.resource = dep.resource;

        // Publish the manifest's interface GUIDs so Call dispatch can
        // reject mismatched invocations.
        for (const odf::InterfaceSpec &iface : entry.manifest.interfaces)
            if (!iface.guid.isNull())
                dep.instance->declareInterface(iface.guid);

        Status initialized = dep.instance->doInitialize(ctx);
        if (!initialized) {
            resources_.release(dep.resource);
            done(initialized);
            return;
        }
        dep.oob->connectOffcode(*dep.instance);

        ++stats_.offcodesDeployed;
        if (site.isHost())
            ++stats_.hostPlacedCount;
        else
            ++stats_.offloadedCount;

        deployed_[bindname] = std::move(dep);
        done(Status::success());
    });
}

void
Runtime::deployGraph(LayoutGraph graph, DeployCallback done)
{
    auto placement = resolver_.resolve(graph, placementSites());
    if (!placement) {
        ++stats_.deploymentsFailed;
        done(placement.error());
        return;
    }

    // Deploy the not-yet-deployed nodes one after another (the host
    // drives the loaders serially, as real firmware updates do).
    struct Pending
    {
        LayoutGraph graph;
        Placement placement;
        std::vector<std::size_t> toDeploy;
        std::size_t next = 0;
        DeployCallback done;
        /**
         * Continuation for the next load step. Pending owns it and
         * the closure captures Pending, an intentional cycle that is
         * broken explicitly (finish() clears it) on every terminal
         * path, so nothing leaks.
         */
        std::function<void()> step;

        void
        finish(Result<OffcodeHandle> outcome)
        {
            auto callback = std::move(done);
            step = nullptr; // break the ownership cycle
            callback(std::move(outcome));
        }
    };
    auto pending = std::make_shared<Pending>();
    pending->graph = std::move(graph);
    pending->placement = std::move(placement).value();
    pending->done = std::move(done);

    for (std::size_t n = 0; n < pending->graph.nodes().size(); ++n) {
        const std::string &name =
            pending->graph.nodes()[n]->manifest.bindname;
        if (!deployed_.count(name))
            pending->toDeploy.push_back(n);
    }

    pending->step = [this, pending]() {
        if (pending->next >= pending->toDeploy.size()) {
            // All loaded and initialized: run phase two in reverse
            // graph order so imports start before their importers.
            for (auto it = pending->toDeploy.rbegin();
                 it != pending->toDeploy.rend(); ++it) {
                const std::string &name =
                    pending->graph.nodes()[*it]->manifest.bindname;
                auto dit = deployed_.find(name);
                if (dit == deployed_.end())
                    continue;
                Status started = dit->second.instance->doStart();
                if (!started) {
                    ++stats_.deploymentsFailed;
                    pending->finish(started.error());
                    return;
                }
            }
            ++stats_.deploymentsCompleted;
            pending->finish(
                getOffcode(pending->graph.root().manifest.bindname));
            return;
        }

        const std::size_t n = pending->toDeploy[pending->next++];
        const DepotEntry &entry = *pending->graph.nodes()[n];
        ExecutionSite &site = *pending->placement.site[n];
        deployNode(entry, site, [this, pending](Status status) {
            if (!status) {
                ++stats_.deploymentsFailed;
                pending->finish(status.error());
                return;
            }
            pending->step();
        });
    };
    pending->step();
}

void
Runtime::createOffcode(const std::string &odf_reference,
                       DeployCallback done)
{
    auto rootEntry = depot_.resolve(odf_reference);
    if (!rootEntry) {
        ++stats_.deploymentsFailed;
        done(rootEntry.error());
        return;
    }

    auto graph = LayoutGraph::build(depot_, *rootEntry.value());
    if (!graph) {
        ++stats_.deploymentsFailed;
        done(graph.error());
        return;
    }

    deployGraph(std::move(graph).value(), std::move(done));
}

Result<OffcodeHandle>
Runtime::getOffcode(const std::string &bindname)
{
    auto it = deployed_.find(bindname);
    if (it == deployed_.end())
        return Error(ErrorCode::NotFound,
                     "offcode not deployed: " + bindname);
    return OffcodeHandle{it->second.instance.get(), it->second.site};
}

void
Runtime::beginOffcodeOutage(const std::string &bindname, Deployed &dep)
{
    if (!dep.instance || dep.outage)
        return;
    LOG_INFO << bindname << ": outage begins (snapshot + quiesce)";
    dep.restartSnapshot = dep.instance->snapshotState();
    // Quiesce first: from here on, inbound messages queue at the
    // endpoints instead of reaching the dying instance.
    executive_->detachOffcode(*dep.instance);
    dep.instance->doStop();
    dep.outage = true;
}

Status
Runtime::completeOffcodeRestart(const std::string &bindname, Deployed &dep)
{
    if (!dep.outage)
        return Status(ErrorCode::InvalidArgument,
                      bindname + ": no outage in progress");
    if (!dep.entry || !dep.entry->factory)
        return Status(ErrorCode::Unsupported,
                      bindname + ": no depot factory to restart from");

    std::unique_ptr<Offcode> fresh = dep.entry->factory();
    if (!fresh)
        return Status(ErrorCode::Internal,
                      bindname + ": restart factory returned null");
    for (const odf::InterfaceSpec &iface : dep.entry->manifest.interfaces)
        if (!iface.guid.isNull())
            fresh->declareInterface(iface.guid);
    if (dep.instance)
        fresh->setQuota(dep.instance->quota());

    OffcodeContext ctx;
    ctx.runtime = this;
    ctx.site = dep.site;
    ctx.oobChannel = dep.oob;
    ctx.resource = dep.resource;
    Status initialized = fresh->doInitialize(ctx);
    if (!initialized)
        return initialized;
    fresh->restoreState(dep.restartSnapshot);
    Status started = fresh->doStart();
    if (!started)
        return started;

    // Cutover: swap instances, then hand every quiesced endpoint to
    // the successor — reinstalling the handlers drains the backlog
    // that queued during the outage into it, in arrival order. The
    // retired instance stays alive until after the rebind (the
    // endpoints match on its pointer).
    std::unique_ptr<Offcode> retired = std::move(dep.instance);
    dep.instance = std::move(fresh);
    if (retired)
        executive_->rebindOffcode(*retired, *dep.instance);
    dep.outage = false;
    dep.restartSnapshot.clear();
    ++dep.restarts;
    obs::counter("offcode.restarts", {{"offcode", bindname}}).increment();
    chaos::ChaosEngine::recordRecovery("offcode_restart");
    LOG_INFO << bindname << ": restarted with state handoff (#"
             << dep.restarts << ")";
    return Status::success();
}

Status
Runtime::restartOffcode(const std::string &bindname)
{
    auto it = deployed_.find(bindname);
    if (it == deployed_.end())
        return Status(ErrorCode::NotFound,
                      "offcode not deployed: " + bindname);
    Deployed &dep = it->second;
    if (!dep.outage)
        beginOffcodeOutage(bindname, dep);
    return completeOffcodeRestart(bindname, dep);
}

void
Runtime::scheduleWatchdog()
{
    if (config_.watchdogLimitNs == 0)
        return;
    const sim::SimTime period = config_.watchdogPeriodNs > 0
                                    ? config_.watchdogPeriodNs
                                    : sim::seconds(1);
    machine_.executor().schedule(period, [this, alive = alive_]() {
        if (!*alive)
            return;
        watchdogSweep();
        scheduleWatchdog();
    });
}

void
Runtime::watchdogSweep()
{
    const sim::SimTime now = machine_.executor().now();
    std::vector<std::string> wedged;
    for (auto &[bindname, dep] : deployed_) {
        if (!dep.instance || dep.outage)
            continue;
        if (dep.instance->state() != OffcodeState::Started)
            continue;
        const OffcodeTelemetry &telemetry = dep.instance->telemetry();
        const sim::SimTime age = telemetry.messagesProcessed() > 0
                                     ? now - telemetry.lastActivityAt
                                     : now;
        if (age < config_.watchdogLimitNs)
            continue;
        // Silent with nothing waiting is idle, not wedged.
        if (executive_->queuedFor(*dep.instance) == 0)
            continue;
        wedged.push_back(bindname);
    }
    for (const std::string &bindname : wedged) {
        LOG_WARN << "watchdog: " << bindname
                 << " silent with backlog; killing and restarting";
        obs::counter("offcode.watchdog_kills", {{"offcode", bindname}})
            .increment();
        Status restarted = restartOffcode(bindname);
        if (restarted)
            chaos::ChaosEngine::recordRecovery("watchdog_kill");
        else
            LOG_ERROR << "watchdog: restart of " << bindname
                      << " failed: " << restarted.error().describe();
    }
}

Status
Runtime::invokeAsync(const std::string &bindname, const std::string &method,
                     const Bytes &arguments,
                     Proxy::ReturnCallback on_return)
{
    auto it = deployed_.find(bindname);
    if (it == deployed_.end())
        return Status(ErrorCode::NotFound,
                      "offcode not deployed: " + bindname);
    Deployed &dep = it->second;
    if (!dep.oob)
        return Status(ErrorCode::ChannelNotConnected,
                      bindname + " has no OOB channel");
    if (!dep.controlProxy)
        dep.controlProxy = std::make_unique<Proxy>(
            *dep.oob, dep.instance->guid(), dep.instance->guid());
    return dep.controlProxy->invoke(method, arguments,
                                    std::move(on_return));
}

IntrospectionSnapshot
Runtime::introspect() const
{
    IntrospectionSnapshot snap;
    snap.machine = machine_.name();
    snap.now = machine_.executor().now();
    for (const auto &[bindname, dep] : deployed_) {
        if (!dep.instance)
            continue;
        OffcodeIntrospection oc;
        oc.bindname = bindname;
        oc.site = dep.site ? dep.site->name() : "";
        oc.isHost = !dep.site || dep.site->isHost();
        oc.state = offcodeStateName(dep.instance->state());
        oc.telemetry = dep.instance->telemetry();
        oc.watchdogAgeNs =
            oc.telemetry.messagesProcessed() > 0
                ? snap.now - oc.telemetry.lastActivityAt
                : snap.now;
        if (dep.oob) {
            oc.oobQueued = dep.oob->queuedFor(*dep.instance);
            oc.oobDelivered = dep.oob->stats().messagesDelivered;
        }
        snap.offcodes.push_back(std::move(oc));
    }
    return snap;
}

std::string
Runtime::introspectJson() const
{
    const IntrospectionSnapshot snap = introspect();
    std::ostringstream out;
    out << "{\"machine\":";
    json::writeString(out, snap.machine);
    out << ",\"now_ns\":" << snap.now << ",\"offcodes\":[";
    bool first = true;
    for (const OffcodeIntrospection &oc : snap.offcodes) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"bindname\":";
        json::writeString(out, oc.bindname);
        out << ",\"site\":";
        json::writeString(out, oc.site);
        out << ",\"is_host\":" << (oc.isHost ? "true" : "false")
            << ",\"state\":";
        json::writeString(out, oc.state);
        out << ",\"calls_handled\":" << oc.telemetry.callsHandled
            << ",\"data_handled\":" << oc.telemetry.dataHandled
            << ",\"mgmt_handled\":" << oc.telemetry.mgmtHandled
            << ",\"invoke_errors\":" << oc.telemetry.invokeErrors
            << ",\"busy_ns\":" << oc.telemetry.busyNs
            << ",\"watchdog_age_ns\":" << oc.watchdogAgeNs
            << ",\"oob_queued\":" << oc.oobQueued
            << ",\"oob_delivered\":" << oc.oobDelivered << "}";
    }
    out << "]}";
    return out.str();
}

Result<Channel *>
Runtime::oobChannelOf(const std::string &bindname)
{
    auto it = deployed_.find(bindname);
    if (it == deployed_.end())
        return Error(ErrorCode::NotFound,
                     "offcode not deployed: " + bindname);
    if (!it->second.oob)
        return Error(ErrorCode::ChannelNotConnected, "no OOB channel");
    return it->second.oob;
}

} // namespace hydra::core
