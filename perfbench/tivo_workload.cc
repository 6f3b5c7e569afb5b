/**
 * @file
 * tivo_offloaded: the paper's headline scenario, offloaded server and
 * offloaded client, one 1 KiB chunk every 5 ms for 60 simulated
 * seconds after a 2 s warmup. Testbed::run is monolithic, so the
 * traced run wraps only the constructor and run() and prices the cache
 * model and event kernel inside run() with ladders (see ledger.hh).
 */

#include <optional>

#include "obs/metrics.hh"
#include "tivo/harness.hh"
#include "workload.hh"

namespace perfbench {

namespace {

using namespace hydra;

std::uint64_t
cacheLines(tivo::Testbed &testbed)
{
    return testbed.serverMachine().l2().totals().accesses +
           testbed.clientMachine().l2().totals().accesses;
}

tivo::TestbedConfig
testbedConfig(std::uint64_t seed)
{
    tivo::TestbedConfig config;
    config.server = tivo::ServerKind::Offloaded;
    config.client = tivo::ClientKind::Offloaded;
    config.seed = seed;
    // 60 s of 5 ms chunks gives ~12k inter-arrival samples, so p999
    // has more than 10 beyond it.
    config.duration = sim::seconds(60);
    config.warmup = sim::seconds(2);
    return config;
}

} // namespace

double
tivoSetupOnce(std::uint64_t seed)
{
    const std::int64_t t0 = hostNs();
    tivo::Testbed testbed(testbedConfig(seed));
    return static_cast<double>(hostNs() - t0) / 1e9;
}

Round
runTivoRound(std::uint64_t seed, SpanRecorder *trace)
{
    obs::MetricsRegistry::instance().reset();
    Round round;
    const tivo::TestbedConfig config = testbedConfig(seed);

    const std::int64_t t0 = hostNs();
    std::optional<tivo::Testbed> testbed;
    {
        Scope span(trace, "tivo.setup");
        testbed.emplace(config);
    }
    const std::int64_t t1 = hostNs();

    exec::Executor &executor = testbed->executor();
    round.pendingAtStart = executor.pendingEvents();
    const std::uint64_t events0 = executor.eventsDispatched();
    const std::uint64_t lines0 = cacheLines(*testbed);
    const std::uint64_t hits0 = counterTotal("payload.pool_hits");
    const std::uint64_t allocs0 = counterTotal("payload.allocations");

    tivo::ScenarioResult result;
    {
        Scope span(trace, "tivo.run");
        result = testbed->run();
    }
    const std::int64_t t2 = hostNs();

    round.runEvents = executor.eventsDispatched() - events0;
    round.runCacheLines = cacheLines(*testbed) - lines0;
    round.virtualS = sim::toSeconds(config.warmup + config.duration);
    round.delivered = result.packetsReceived;

    // Outputs: the stream deployed, every chunk arrived, video played.
    // run() stops at a fixed virtual time, so a chunk sent just before
    // it can still be on the wire: those count as arrived, not lost.
    const net::NetworkStats wire = testbed->network().stats();
    const std::uint64_t inFlight =
        wire.packetsSent - wire.packetsDelivered - wire.packetsDropped;
    const std::uint64_t missing =
        result.chunksSent > result.packetsReceived
            ? result.chunksSent - result.packetsReceived
            : 0;
    const std::uint64_t lost = missing > inFlight ? missing - inFlight : 0;
    round.checks = {
        {"deployment_ok", result.deploymentOk},
        {"every_chunk_received_or_on_the_wire",
         lost == 0 && result.packetsReceived <= result.chunksSent &&
             wire.packetsDropped == 0},
        {"frames_displayed", result.framesDisplayed > 0},
    };
    round.attempted = result.chunksSent;
    round.failed = lost + wire.packetsDropped;
    for (const Check &check : round.checks)
        round.failed += check.ok ? 0 : 1;

    const SampleSet &jitter = result.interarrivalMs;
    round.virtualOut = {
        {"vlatency_p50_vus", jitter.percentile(50) * 1e3, "vus",
         jitter.count()},
        {"vlatency_p999_vus", jitter.percentile(99.9) * 1e3, "vus",
         jitter.count()},
        {"jitter_p50_ms", jitter.percentile(50), "ms", jitter.count()},
        {"jitter_p999_ms", jitter.percentile(99.9), "ms", jitter.count()},
        {"server_cpu_pct", result.serverCpuPct.median(), "%", 0},
        {"client_cpu_pct", result.clientCpuPct.median(), "%", 0},
        {"client_l2_miss_rate", result.clientL2MissRate.median(),
         "fraction", 0},
        // Chunks that arrived inside the measured window.
        {"vgoodput_msgs_s",
         static_cast<double>(jitter.count() + 1) /
             sim::toSeconds(config.duration),
         "msgs/s", 0},
        {"chunks_sent", static_cast<double>(result.chunksSent), "count", 0},
        {"frames_displayed", static_cast<double>(result.framesDisplayed),
         "count", 0},
    };

    obs::Histogram dma;
    mergeHistograms("dma.transfer_ns", dma);
    obs::Histogram flight;
    mergeHistograms("net.flight_ns", flight);
    obs::Histogram service;
    mergeHistograms("offcode.service_ns", service);
    obs::Histogram deploy;
    mergeHistograms("loader.deploy_latency_ns", deploy);
    const double chunks = static_cast<double>(
        result.packetsReceived ? result.packetsReceived : 1);
    round.layerCounts = {
        {"exec.events", static_cast<double>(round.runEvents), "count", 0},
        {"exec.events_per_msg", static_cast<double>(round.runEvents) / chunks,
         "ratio", 0},
        {"hw.cache.lines", static_cast<double>(round.runCacheLines), "count",
         0},
        {"hw.bus.crossings",
         static_cast<double>(result.serverBusCrossings +
                             result.clientBusCrossings),
         "count", 0},
        {"dev.dma_transfers", static_cast<double>(dma.count()), "count", 0},
        {"dev.dma_p99_vns", dma.percentile(99), "vns", dma.count()},
        {"net.packets", static_cast<double>(counterTotal("net.packets_sent")),
         "count", 0},
        {"net.flight_p99_vns", flight.percentile(99), "vns", flight.count()},
        {"core.offcode_dispatches", static_cast<double>(service.count()),
         "count", 0},
        {"core.deploy_vns", static_cast<double>(deploy.max()), "vns",
         deploy.count()},
        {"core.wire_copies_per_remote_msg", 0.0, "ratio", 0},
        {"fleet.orphan_frames", 0.0, "count", 0},
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

    testbed.reset();
    const std::int64_t t3 = hostNs();
    round.setupS = static_cast<double>(t1 - t0) / 1e9;
    round.runS = static_cast<double>(t2 - t1) / 1e9;
    round.sliceS = {round.runS};
    round.wallS = static_cast<double>(t3 - t0) / 1e9;
    return round;
}

} // namespace perfbench
