/**
 * @file
 * fleet_openloop and fleet_churn: a 4-host fleet with quiet hosts and
 * 10,000 streams of 256 B messages, driven by the benchmark's own
 * open-loop pacer. The pacer makes the same public calls, in the same
 * order, as fleet::runOpenLoop (create + connectSite + installHandler,
 * PayloadBuilder build + seal, Channel::write, destroyChannelById), so
 * that each call can carry a span; crossCheckPacer() shows that both
 * produce the same virtual-time results.
 */

#include <cstdio>
#include <memory>
#include <optional>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "obs/metrics.hh"
#include "workload.hh"

namespace perfbench {

namespace {

using namespace hydra;

constexpr std::size_t kHosts = 4;
constexpr std::size_t kStreams = 10000;
constexpr std::size_t kMessageBytes = 256;
constexpr sim::SimTime kTick = sim::microseconds(100);
constexpr sim::SimTime kDrain = sim::milliseconds(5);
/** The window runs in slices this long, each timed on the host. */
constexpr sim::SimTime kSlice = sim::milliseconds(5);

/** Offered load of one fleet workload. */
struct Shape
{
    double msgsPerSec = 0.0;
    std::size_t churnPerTick = 0;
    /** Virtual window: long enough for >= 10 samples beyond p999. */
    sim::SimTime window = 0;
};

Shape
shapeOf(WorkloadKind kind)
{
    // fleet_openloop: ~40% of the 4-host saturated goodput, so the
    // backlog stays bounded and per-message cost dominates.
    // fleet_churn: a light data plane beside 40 destroy+create per
    // 100 us tick on the executive's control plane.
    if (kind == WorkloadKind::FleetChurn)
        return {1e5, 40, sim::milliseconds(200)};
    return {1e6, 0, sim::milliseconds(100)};
}

fleet::FleetConfig
fleetConfig(std::uint64_t seed)
{
    fleet::FleetConfig config;
    config.hosts = kHosts;
    config.quietHosts = true;
    config.backgroundLoad = false;
    config.seed = seed;
    return config;
}

struct Stream
{
    std::string key;
    fleet::Host *home = nullptr;
    fleet::Host *target = nullptr;
    core::Channel *channel = nullptr;
    core::ChannelId id = core::kInvalidChannel;
};

/** What one pacer run observed. */
struct PacerReport
{
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t writeFailures = 0;
    std::uint64_t remoteWrites = 0;
    std::uint64_t churned = 0;
    std::uint64_t churnFailures = 0;
    std::uint64_t createFailures = 0;
    sim::SimTime maxLateness = 0;
    obs::HistogramSummary latency;
    double runS = 0.0;
    std::vector<double> sliceS;
    std::uint64_t runEvents = 0;
};

/**
 * Open-loop pacer over one fleet. Mirrors fleet::runOpenLoop's
 * coordinator mode call for call; the spans are the only addition.
 */
class Pacer
{
  public:
    Pacer(fleet::Fleet &fleet, Shape shape, SpanRecorder *trace)
        : fleet_(fleet), shape_(shape), trace_(trace),
          latency_(std::make_unique<obs::Histogram>())
    {
    }

    /** Stand up every stream; keys are prefix + index. */
    void
    build(const std::string &prefix)
    {
        streams_.resize(kStreams);
        for (std::size_t i = 0; i < kStreams; ++i) {
            Stream &stream = streams_[i];
            stream.key = prefix + std::to_string(i);
            stream.home = &fleet_.homeOf(stream.key);
            stream.target = &fleet_.homeOf(stream.key + "#peer");
            if (!create(stream))
                ++report_.createFailures;
        }
        fleet_.executor().drain();
    }

    void
    run(sim::SimTime window)
    {
        exec::Executor &executor = fleet_.executor();
        const sim::SimTime start = executor.now();
        const sim::SimTime end = start + window;
        std::uint64_t ticks = 0;
        std::size_t cursor = 0;
        executor.schedulePeriodic(kTick, [&, start, end]() -> bool {
            const sim::SimTime now = executor.now();
            if (now >= end)
                return false;
            ++ticks;
            const sim::SimTime dueTick =
                start + static_cast<sim::SimTime>(ticks) * kTick;
            if (now > dueTick && now - dueTick > report_.maxLateness)
                report_.maxLateness = now - dueTick;
            const double elapsedSec = static_cast<double>(now - start) / 1e9;
            const auto target = static_cast<std::uint64_t>(
                shape_.msgsPerSec * elapsedSec);
            const std::uint64_t due =
                target > report_.offered ? target - report_.offered : 0;
            for (std::uint64_t k = 0; k < due; ++k)
                write(streams_[cursor++ % streams_.size()],
                      report_.offered + k + 1);
            for (std::size_t c = 0; c < shape_.churnPerTick; ++c)
                churn(streams_[cursor++ % streams_.size()]);
            report_.offered += due;
            return true;
        });

        const std::uint64_t events0 = executor.eventsDispatched();
        const std::int64_t t0 = hostNs();
        {
            Scope span(trace_, "exec.run");
            // Stopping at a slice boundary changes nothing: the next
            // runUntil goes on with the same queue.
            for (sim::SimTime until = start + kSlice; until <= end;
                 until += kSlice) {
                const std::int64_t s0 = hostNs();
                executor.runUntil(until);
                report_.sliceS.push_back(
                    static_cast<double>(hostNs() - s0) / 1e9);
            }
            executor.runUntil(end + kDrain);
            executor.drain();
        }
        report_.runS = static_cast<double>(hostNs() - t0) / 1e9;
        report_.runEvents = executor.eventsDispatched() - events0;
        report_.latency = latency_->summary();
    }

    /** Destroy every stream before the handlers' state goes away. */
    void
    teardown()
    {
        for (Stream &stream : streams_)
            destroy(stream);
        fleet_.executor().drain();
    }

    PacerReport &report() { return report_; }

  private:
    bool
    create(Stream &stream)
    {
        Scope span(trace_, "core.create");
        core::ChannelConfig config;
        config.name = "fleet.stream";
        config.targetDevice = stream.target->nic().name();
        auto created = stream.home->executive().createChannel(
            config, stream.home->runtime().hostSite(), kMessageBytes);
        if (!created)
            return false;
        stream.channel = created.value();
        stream.id = stream.channel->id();
        core::ExecutionSite *site =
            stream.target->runtime().siteByName(config.targetDevice);
        if (!site)
            return false;
        auto endpoint = stream.channel->connectSite(*site);
        if (!endpoint)
            return false;
        exec::Executor &executor = fleet_.executor();
        obs::Histogram &latency = *latency_;
        std::uint64_t &delivered = report_.delivered;
        stream.channel->installHandler(
            endpoint.value(),
            [&executor, &latency, &delivered](const Payload &message,
                                              std::size_t) {
                ByteReader reader(message.data(), message.size());
                auto stamp = reader.readU64();
                if (stamp)
                    latency.record(executor.now() -
                                   static_cast<sim::SimTime>(stamp.value()));
                ++delivered;
            });
        return true;
    }

    void
    destroy(Stream &stream)
    {
        if (!stream.channel)
            return;
        Scope span(trace_, "core.destroy");
        if (!stream.home->executive().destroyChannelById(stream.id))
            ++report_.churnFailures;
        stream.channel = nullptr;
        stream.id = core::kInvalidChannel;
    }

    void
    write(Stream &stream, std::uint64_t message)
    {
        if (!stream.channel)
            return;
        Payload payload;
        {
            Scope span(trace_, "common.payload_build", message);
            PayloadBuilder builder;
            ByteWriter writer(builder.buffer());
            writer.writeU64(
                static_cast<std::uint64_t>(fleet_.executor().now()));
            if (builder.buffer().size() < kMessageBytes)
                builder.buffer().resize(kMessageBytes, 0);
            payload = builder.seal();
        }
        Scope span(trace_, "core.write", message);
        if (!stream.channel->write(std::move(payload)))
            ++report_.writeFailures;
        else if (stream.home != stream.target)
            ++report_.remoteWrites;
    }

    void
    churn(Stream &stream)
    {
        destroy(stream);
        if (create(stream))
            ++report_.churned;
        else
            ++report_.churnFailures;
    }

    fleet::Fleet &fleet_;
    Shape shape_;
    SpanRecorder *trace_;
    std::unique_ptr<obs::Histogram> latency_;
    std::vector<Stream> streams_;
    PacerReport report_;
};

/** The seed names the streams, so it moves their placement. */
std::string
streamPrefix(std::uint64_t seed)
{
    return "s" + std::to_string(seed) + "/";
}

std::uint64_t
orphanFrames(fleet::Fleet &fleet)
{
    std::uint64_t total = 0;
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        total += fleet.host(h).orphanFrames();
    return total;
}

} // namespace

Round
runFleetRound(WorkloadKind kind, std::uint64_t seed, SpanRecorder *trace)
{
    obs::MetricsRegistry::instance().reset();
    Round round;
    const Shape shape = shapeOf(kind);

    const std::int64_t t0 = hostNs();
    auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
    std::optional<fleet::Fleet> fleet;
    {
        Scope span(trace, "fleet.setup");
        fleet.emplace(*executor, fleetConfig(seed));
    }
    Pacer pacer(*fleet, shape, trace);
    pacer.build(streamPrefix(seed));
    const std::int64_t t1 = hostNs();
    round.pendingAtStart = executor->pendingEvents();

    auto &registry = obs::MetricsRegistry::instance();
    const auto wire = [&registry]() {
        return registry.counterValue("channel.payload_copies",
                                     {{"buffering", "wire"}});
    };
    const auto zero = [&registry]() {
        return registry.counterValue("channel.payload_copies",
                                     {{"buffering", "zero-copy"}});
    };
    const std::uint64_t wire0 = wire();
    const std::uint64_t zero0 = zero();
    const std::uint64_t crossings0 = counterTotal("bus.crossings");
    const std::uint64_t packets0 = counterTotal("net.packets_sent");
    const std::uint64_t hits0 = counterTotal("payload.pool_hits");
    const std::uint64_t allocs0 = counterTotal("payload.allocations");
    std::uint64_t lines0 = 0;
    for (std::size_t h = 0; h < fleet->hostCount(); ++h)
        lines0 += fleet->host(h).machine().l2().totals().accesses;
    obs::Histogram dma0;
    mergeHistograms("dma.transfer_ns", dma0);
    obs::Histogram flight0;
    mergeHistograms("net.flight_ns", flight0);

    pacer.run(shape.window);
    const PacerReport &report = pacer.report();

    const std::uint64_t wireCopies = wire() - wire0;
    const std::uint64_t zeroCopies = zero() - zero0;
    const std::uint64_t orphans = orphanFrames(*fleet);
    std::uint64_t lines = 0;
    for (std::size_t h = 0; h < fleet->hostCount(); ++h)
        lines += fleet->host(h).machine().l2().totals().accesses;
    round.runCacheLines = lines - lines0;
    round.runEvents = report.runEvents;
    round.runS = report.runS;
    round.sliceS = report.sliceS;
    round.virtualS = sim::toSeconds(kSlice) *
                     static_cast<double>(report.sliceS.size());
    round.delivered = report.delivered;
    round.churnOps = report.churned;

    round.checks = {
        {"streams_created", report.createFailures == 0},
        {"delivered_eq_offered", report.delivered == report.offered},
        {"no_write_failures", report.writeFailures == 0},
        {"no_orphan_frames", orphans == 0},
        {"one_wire_copy_per_remote_msg",
         report.remoteWrites > 0 && wireCopies == report.remoteWrites},
        {"no_zero_copy_path_copies", zeroCopies == 0},
        {"churn_ops_ok", report.churnFailures == 0},
        {"generator_on_time", report.maxLateness == 0},
    };
    round.attempted = report.offered + report.churned + report.churnFailures;
    round.failed = (report.offered > report.delivered
                        ? report.offered - report.delivered
                        : 0) +
                   report.writeFailures + orphans + report.churnFailures;
    for (const Check &check : round.checks)
        round.failed += check.ok ? 0 : 1;

    const double window = sim::toSeconds(shape.window);
    round.virtualOut = {
        {"vlatency_p50_vus", report.latency.p50 / 1e3, "vus",
         report.latency.count},
        {"vlatency_p999_vus", report.latency.p999 / 1e3, "vus",
         report.latency.count},
        {"delivery_p50_vus", report.latency.p50 / 1e3, "vus",
         report.latency.count},
        {"delivery_p99_vus", report.latency.p99 / 1e3, "vus",
         report.latency.count},
        {"delivery_p999_vus", report.latency.p999 / 1e3, "vus",
         report.latency.count},
        {"vgoodput_msgs_s", static_cast<double>(report.delivered) / window,
         "msgs/s", 0},
        {"offered", static_cast<double>(report.offered), "count", 0},
        {"churned", static_cast<double>(report.churned), "count", 0},
        {"generator_lateness_max_vus",
         static_cast<double>(report.maxLateness) / 1e3, "vus", 0},
    };

    obs::Histogram dma;
    mergeHistograms("dma.transfer_ns", dma);
    obs::Histogram flight;
    mergeHistograms("net.flight_ns", flight);
    const double msgs =
        static_cast<double>(report.delivered ? report.delivered : 1);
    round.layerCounts = {
        {"exec.events", static_cast<double>(report.runEvents), "count", 0},
        {"exec.events_per_msg", static_cast<double>(report.runEvents) / msgs,
         "ratio", 0},
        {"hw.cache.lines", static_cast<double>(round.runCacheLines), "count",
         0},
        {"hw.bus.crossings",
         static_cast<double>(counterTotal("bus.crossings") - crossings0),
         "count", 0},
        {"dev.dma_transfers",
         static_cast<double>(dma.count() - dma0.count()), "count", 0},
        {"dev.dma_p99_vns", dma.percentile(99), "vns", dma.count()},
        {"net.packets",
         static_cast<double>(counterTotal("net.packets_sent") - packets0),
         "count", 0},
        {"net.flight_p99_vns", flight.percentile(99), "vns",
         flight.count() - flight0.count()},
        {"core.offcode_dispatches", 0.0, "count", 0},
        {"core.deploy_vns", 0.0, "vns", 0},
        {"core.wire_copies_per_remote_msg",
         report.remoteWrites ? static_cast<double>(wireCopies) /
                                   static_cast<double>(report.remoteWrites)
                             : 0.0,
         "ratio", 0},
        {"fleet.orphan_frames", static_cast<double>(orphans), "count", 0},
    };

    const double hits =
        static_cast<double>(counterTotal("payload.pool_hits") - hits0);
    const double allocs =
        static_cast<double>(counterTotal("payload.allocations") - allocs0);
    round.hostCounts = {
        {"common.pool_hit_ratio",
         hits + allocs > 0 ? hits / (hits + allocs) : 0.0, "ratio", 0},
        {"obs.series", static_cast<double>(registrySeries()), "count", 0},
    };

    pacer.teardown();
    fleet.reset();
    executor.reset();
    const std::int64_t t2 = hostNs();
    round.setupS = static_cast<double>(t1 - t0) / 1e9;
    round.wallS = static_cast<double>(t2 - t0) / 1e9;
    return round;
}

double
fleetSetupOnce(std::uint64_t seed)
{
    const std::int64_t t0 = hostNs();
    auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
    fleet::Fleet fleet(*executor, fleetConfig(seed));
    Pacer pacer(fleet, {}, nullptr);
    pacer.build(streamPrefix(seed));
    const std::int64_t t1 = hostNs();
    pacer.teardown();
    return static_cast<double>(t1 - t0) / 1e9;
}

bool
crossCheckPacer(WorkloadKind kind)
{
    const Shape shape = shapeOf(kind);
    const fleet::FleetConfig config = fleetConfig(fleet::FleetConfig{}.seed);

    fleet::LoadgenReport reference;
    {
        auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
        fleet::Fleet fleet(*executor, config);
        fleet::LoadgenConfig load;
        load.streams = kStreams;
        load.messageBytes = kMessageBytes;
        load.offeredMsgsPerSec = shape.msgsPerSec;
        load.duration = shape.window;
        load.tick = kTick;
        load.drain = kDrain;
        load.churnPerTick = shape.churnPerTick;
        load.resetMetrics = true;
        reference = fleet::runOpenLoop(fleet, load);
    }

    obs::MetricsRegistry::instance().reset();
    PacerReport ours;
    {
        auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
        fleet::Fleet fleet(*executor, config);
        Pacer pacer(fleet, shape, nullptr);
        // fleet::runOpenLoop's stream names.
        pacer.build("stream/");
        pacer.run(shape.window);
        pacer.teardown();
        ours = pacer.report();
    }

    const double window = sim::toSeconds(shape.window);
    const double ourGoodput = static_cast<double>(ours.delivered) / window;
    std::printf("crosscheck %s: runOpenLoop delivered %llu goodput %.1f "
                "p50 %.1f p99 %.1f p999 %.1f ns | pacer delivered %llu "
                "goodput %.1f p50 %.1f p99 %.1f p999 %.1f ns\n",
                kind == WorkloadKind::FleetChurn ? "fleet_churn"
                                                 : "fleet_openloop",
                static_cast<unsigned long long>(reference.delivered),
                reference.deliveredPerVirtualSec, reference.latency.p50,
                reference.latency.p99, reference.latency.p999,
                static_cast<unsigned long long>(ours.delivered), ourGoodput,
                ours.latency.p50, ours.latency.p99, ours.latency.p999);
    return reference.delivered == ours.delivered &&
           reference.offered == ours.offered &&
           reference.deliveredPerVirtualSec == ourGoodput &&
           reference.latency.p50 == ours.latency.p50 &&
           reference.latency.p99 == ours.latency.p99 &&
           reference.latency.p999 == ours.latency.p999;
}

} // namespace perfbench
