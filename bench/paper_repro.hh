/**
 * @file
 * The paper's TiVo evaluation (Section 6.4 and the Section 1.1 onload
 * argument) as data: the eight distinct scenarios behind Fig. 9,
 * Tables 2-4 and Fig. 10, and the shape checks that hold the
 * reproduction to the paper. `paper_repro` runs the scenarios once,
 * prints every table from them and exits 1 when a check fails;
 * tests/paper_checks_test feeds the same checks real and fabricated
 * runs.
 */

#ifndef HYDRA_BENCH_PAPER_REPRO_HH
#define HYDRA_BENCH_PAPER_REPRO_HH

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "tivo/harness.hh"
#include "tivo/server.hh"

namespace hydra::bench {

/**
 * Simulated measurement duration per scenario: the paper's 10 minutes,
 * or HYDRA_BENCH_SECONDS when that is a positive number.
 */
inline sim::SimTime
benchDuration()
{
    if (const char *env = std::getenv("HYDRA_BENCH_SECONDS")) {
        const long seconds = std::strtol(env, nullptr, 10);
        if (seconds > 0)
            return sim::seconds(static_cast<std::uint64_t>(seconds));
    }
    return sim::seconds(600);
}

/** Every distinct scenario the paper's TiVo tables are printed from. */
struct PaperRuns
{
    tivo::ScenarioResult idle;            ///< (None, None)
    tivo::ScenarioResult simple;          ///< (Simple, Receiver)
    tivo::ScenarioResult sendfile;        ///< (Sendfile, Receiver)
    tivo::ScenarioResult offloaded;       ///< (Offloaded, Receiver)
    tivo::ScenarioResult userSpaceClient; ///< (Offloaded, UserSpace)
    tivo::ScenarioResult offloadedClient; ///< (Offloaded, Offloaded)
    tivo::ScenarioResult onloaded;        ///< (Onloaded, Receiver)
    /** D3 ablation: (Simple, Receiver) without host OS noise, <= 120 s. */
    tivo::ScenarioResult quietSimple;
    /** Busy share of the onloaded server's dedicated I/O core, %. */
    double onloadIoCorePct = 0.0;
};

/** The paper's protocol: 5 s warmup, then a sample every 5 s. */
inline tivo::TestbedConfig
scenarioConfig(tivo::ServerKind server, tivo::ClientKind client,
               sim::SimTime duration)
{
    tivo::TestbedConfig config;
    config.server = server;
    config.client = client;
    config.duration = duration;
    config.warmup = sim::seconds(5);
    config.sampleInterval = sim::seconds(5);
    return config;
}

/** Run one scenario from an empty metrics registry, as a fresh process. */
inline tivo::ScenarioResult
runScenario(const tivo::TestbedConfig &config)
{
    obs::MetricsRegistry::instance().reset();
    tivo::Testbed testbed(config);
    return testbed.run();
}

/** Run each of the eight scenarios once, for `duration` each. */
inline PaperRuns
runPaperScenarios(sim::SimTime duration)
{
    using tivo::ClientKind;
    using tivo::ServerKind;
    auto run = [duration](ServerKind server, ClientKind client) {
        return runScenario(scenarioConfig(server, client, duration));
    };

    PaperRuns runs;
    runs.idle = run(ServerKind::None, ClientKind::None);
    runs.simple = run(ServerKind::Simple, ClientKind::Receiver);
    runs.sendfile = run(ServerKind::Sendfile, ClientKind::Receiver);
    runs.offloaded = run(ServerKind::Offloaded, ClientKind::Receiver);
    runs.userSpaceClient = run(ServerKind::Offloaded, ClientKind::UserSpace);
    runs.offloadedClient = run(ServerKind::Offloaded, ClientKind::Offloaded);

    // The onloaded run keeps its Testbed to read the dedicated I/O
    // core, whose busy time spans warmup + measured duration.
    const tivo::TestbedConfig onload =
        scenarioConfig(ServerKind::Onloaded, ClientKind::Receiver, duration);
    obs::MetricsRegistry::instance().reset();
    tivo::Testbed onloadBed(onload);
    runs.onloaded = onloadBed.run();
    if (auto *server = dynamic_cast<tivo::OnloadedServer *>(onloadBed.server()))
        runs.onloadIoCorePct =
            100.0 * static_cast<double>(server->ioCpu().busyTime()) /
            static_cast<double>(duration + onload.warmup);

    tivo::TestbedConfig quiet =
        scenarioConfig(ServerKind::Simple, ClientKind::Receiver,
                       std::min<sim::SimTime>(duration, sim::seconds(120)));
    quiet.quietHost = true;
    runs.quietSimple = runScenario(quiet);
    return runs;
}

/**
 * One shape condition of the paper: `measured relation bound`, where
 * relation is '>', '<' or '='.
 */
struct ShapeCheck
{
    std::string name;
    double measured = 0.0;
    char relation = '>';
    double bound = 0.0;

    /** How far inside (> 0) or outside the bound the measurement lies. */
    double margin() const
    {
        switch (relation) {
          case '>': return measured - bound;
          case '<': return bound - measured;
          default:
            return measured == bound ? 0.0 : -std::abs(measured - bound);
        }
    }

    bool pass() const
    {
        return relation == '=' ? measured == bound : margin() > 0.0;
    }
};

/**
 * The paper's shapes as named pass/fail checks over the eight runs. A
 * pure function, so a test can feed it fabricated runs.
 */
inline std::vector<ShapeCheck>
paperChecks(const PaperRuns &r)
{
    std::vector<ShapeCheck> checks;
    auto add = [&checks](const char *name, double measured, char relation,
                         double bound) {
        checks.push_back({name, measured, relation, bound});
    };
    const SampleSet &simpleJ = r.simple.interarrivalMs;
    const SampleSet &sendfileJ = r.sendfile.interarrivalMs;
    const SampleSet &offloadedJ = r.offloaded.interarrivalMs;

    // Table 2 / Fig. 9: medians 7 > 6 > 5 ms; the offloaded server's
    // stddev at least 10x below both user-space servers.
    add("table2.median_simple_over_sendfile_ms",
        simpleJ.median() - sendfileJ.median(), '>', 0.0);
    add("table2.median_sendfile_over_offloaded_ms",
        sendfileJ.median() - offloadedJ.median(), '>', 0.0);
    add("table2.stddev_simple_over_offloaded_x",
        simpleJ.stddev() / offloadedJ.stddev(), '>', 10.0);
    add("table2.stddev_sendfile_over_offloaded_x",
        sendfileJ.stddev() / offloadedJ.stddev(), '>', 10.0);

    // D3: without OS noise the simple server still sits a 1 ms tick
    // or more above the offloaded median (quantization sets the
    // median), with 10x less spread (the noise supplies the spread).
    add("fig9.quiet_median_over_offloaded_ms",
        r.quietSimple.interarrivalMs.median() - offloadedJ.median(), '>',
        1.0);
    add("fig9.stddev_simple_over_quiet_x",
        simpleJ.stddev() / r.quietSimple.interarrivalMs.stddev(), '>', 10.0);

    // Table 3: the offloaded server's host is oblivious; simple >
    // sendfile > idle + 1 point.
    add("table3.offloaded_cpu_off_idle_pct",
        std::abs(r.offloaded.serverCpuPct.mean() -
                 r.idle.serverCpuPct.mean()),
        '<', 0.05);
    add("table3.cpu_simple_over_sendfile_pct",
        r.simple.serverCpuPct.mean() - r.sendfile.serverCpuPct.mean(), '>',
        0.0);
    add("table3.cpu_sendfile_over_idle_pct",
        r.sendfile.serverCpuPct.mean() - r.idle.serverCpuPct.mean(), '>',
        1.0);

    // Table 4: no components left on the client host; both clients
    // display video; decoding on the host costs L2 misses.
    add("table4.offloaded_client_cpu_off_idle_pct",
        std::abs(r.offloadedClient.clientCpuPct.mean() -
                 r.idle.clientCpuPct.mean()),
        '<', 0.05);
    add("table4.user_space_client_frames",
        static_cast<double>(r.userSpaceClient.framesDisplayed), '>', 0.0);
    add("table4.offloaded_client_frames",
        static_cast<double>(r.offloadedClient.framesDisplayed), '>', 0.0);
    add("table4.user_space_client_l2_over_idle_x",
        r.userSpaceClient.clientL2MissRate.mean() /
            r.idle.clientL2MissRate.mean(),
        '>', 1.0);

    // Fig. 10: simple > sendfile ~= offloaded ~= idle.
    add("fig10.l2_simple_over_sendfile_x",
        r.simple.serverL2MissRate.mean() / r.sendfile.serverL2MissRate.mean(),
        '>', 1.03);
    add("fig10.l2_offloaded_off_idle_x",
        std::abs(r.offloaded.serverL2MissRate.mean() /
                     r.idle.serverL2MissRate.mean() -
                 1.0),
        '<', 0.02);

    // Section 1.1: onloading matches offload jitter but still crosses
    // the host bus per packet; the offloaded server never does.
    add("onload.stddev_onloaded_over_offloaded_x",
        r.onloaded.interarrivalMs.stddev() / offloadedJ.stddev(), '<', 3.0);
    add("onload.onloaded_bus_crossings",
        static_cast<double>(r.onloaded.serverBusCrossings), '>', 0.0);
    add("onload.offloaded_bus_crossings",
        static_cast<double>(r.offloaded.serverBusCrossings), '=', 0.0);
    return checks;
}

/** The driver's exit status: 0 when every check passes, else 1. */
inline int
shapeExitCode(const std::vector<ShapeCheck> &checks)
{
    return std::all_of(checks.begin(), checks.end(),
                       [](const ShapeCheck &c) { return c.pass(); })
               ? 0
               : 1;
}

} // namespace hydra::bench

#endif // HYDRA_BENCH_PAPER_REPRO_HH
