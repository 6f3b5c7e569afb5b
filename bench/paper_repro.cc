/**
 * @file
 * Reproduces the paper's TiVo evaluation from one run of each distinct
 * scenario (see paper_repro.hh): Figure 9 (jitter histograms + CDFs and
 * the D3 quiet-host ablation), Table 2 (jitter statistics), Table 3
 * (server CPU), Table 4 (client CPU and the client L2 note), Figure 10
 * (server L2 slowdown) and the Section 1.1 offload-vs-onload comparison.
 * Then it prints every shape check with its margin and exits 1 if any
 * check fails.
 *
 * Usage: paper_repro   (HYDRA_BENCH_SECONDS=N shortens each scenario
 * from the paper's 600 simulated seconds)
 */

#include <cstdio>
#include <string>

#include "bench/paper_repro.hh"

namespace {

using namespace hydra;
using namespace hydra::bench;
using namespace hydra::tivo;

void
printTitle(const char *title)
{
    std::printf("\n=== %s ===\n\n", title);
}

void
printDistribution(const char *name, const SampleSet &samples)
{
    const SummaryStats stats = samples.summary();
    std::printf("--- %s: n=%zu, median=%.3f ms, avg=%.3f ms, "
                "stddev=%.4f ms\n",
                name, stats.count, stats.p50, stats.mean, stats.stddev);

    Histogram histogram(4.0, 9.0, 25);
    for (double v : samples.samples())
        histogram.add(v);
    std::printf("%s", histogram.render(46).c_str());

    std::printf("CDF: ");
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0})
        std::printf("p%.0f=%.3f  ", p, samples.percentile(p));
    std::printf("\n\n");
}

void
printStatHeader()
{
    std::printf("%-18s %-28s %-28s\n", "Scenario",
                "   paper (med avg std)", "  measured (med avg std)");
}

/** One "paper vs measured" row for a three-column statistic. */
void
printStatRow(const char *scenario, double paper_median, double paper_avg,
             double paper_std, const SampleSet &measured)
{
    const SummaryStats stats = measured.summary();
    std::printf("%-18s paper: %6.2f %6.2f %7.4f   measured: "
                "%6.2f %6.2f %7.4f\n",
                scenario, paper_median, paper_avg, paper_std, stats.p50,
                stats.mean, stats.stddev);
}

void
printFig9(const PaperRuns &r)
{
    printTitle("Figure 9: jitter distribution (histogram + CDF)");
    printDistribution("Simple Server", r.simple.interarrivalMs);
    printDistribution("Sendfile Server", r.sendfile.interarrivalMs);
    printDistribution("Offloaded Server", r.offloaded.interarrivalMs);
    std::printf("ablation (quiet host, simple server): median=%.3f ms, "
                "stddev=%.4f ms\n",
                r.quietSimple.interarrivalMs.median(),
                r.quietSimple.interarrivalMs.stddev());
}

void
printTable2(const PaperRuns &r)
{
    printTitle("Table 2: client-side jitter statistics (ms)");
    printStatHeader();
    printStatRow("Simple Server", 6.99, 7.00, 0.5521,
                 r.simple.interarrivalMs);
    printStatRow("Sendfile Server", 6.00, 5.99, 0.4720,
                 r.sendfile.interarrivalMs);
    printStatRow("Offloaded Server", 5.00, 5.00, 0.0369,
                 r.offloaded.interarrivalMs);
}

void
printTable3(const PaperRuns &r)
{
    printTitle("Table 3: server-side CPU utilization (%)");
    printStatHeader();
    printStatRow("Idle", 2.90, 2.86, 0.09, r.idle.serverCpuPct);
    printStatRow("Simple Server", 7.50, 7.50, 0.12, r.simple.serverCpuPct);
    printStatRow("Sendfile Server", 5.90, 6.20, 0.08,
                 r.sendfile.serverCpuPct);
    printStatRow("Offloaded Server", 2.90, 2.86, 0.09,
                 r.offloaded.serverCpuPct);
}

void
printTable4(const PaperRuns &r)
{
    printTitle("Table 4: client-side CPU utilization (%)");
    printStatHeader();
    printStatRow("Idle Client", 2.90, 2.86, 0.09, r.idle.clientCpuPct);
    printStatRow("User-space Client", 7.30, 6.90, 0.32,
                 r.userSpaceClient.clientCpuPct);
    printStatRow("Offloaded Client", 2.90, 2.86, 0.09,
                 r.offloadedClient.clientCpuPct);

    std::printf("\nclient L2 misses (text: non-offloaded +12%% vs "
                "idle):\n");
    const double base = r.idle.clientL2MissRate.mean();
    const double user = r.userSpaceClient.clientL2MissRate.mean();
    const double offloaded = r.offloadedClient.clientL2MissRate.mean();
    std::printf("  idle:       %.4f%% (1.00x)\n", base * 100.0);
    std::printf("  user-space: %.4f%% (%.2fx)\n", user * 100.0, user / base);
    std::printf("  offloaded:  %.4f%% (%.2fx)\n", offloaded * 100.0,
                offloaded / base);
    std::printf("frames displayed: user-space=%llu, offloaded=%llu\n",
                static_cast<unsigned long long>(
                    r.userSpaceClient.framesDisplayed),
                static_cast<unsigned long long>(
                    r.offloadedClient.framesDisplayed));
}

void
printFig10(const PaperRuns &r)
{
    printTitle("Figure 10: L2 slowdown, server side (normalized miss rate)");
    struct Row
    {
        const char *name;
        double paperNormalized;
        const ScenarioResult &run;
    };
    const Row rows[] = {
        {"Idle", 1.00, r.idle},
        {"Simple Server", 1.07, r.simple},
        {"Sendfile Server", 1.00, r.sendfile},
        {"Offloaded Server", 1.00, r.offloaded},
    };
    const double base = r.idle.serverL2MissRate.mean();
    std::printf("%-18s %14s %16s %16s\n", "Scenario", "paper (norm)",
                "measured rate", "measured (norm)");
    for (const Row &row : rows) {
        const double rate = row.run.serverL2MissRate.mean();
        const double normalized = rate / base;
        std::printf("%-18s %14.2f %15.4f%% %15.3f  |%s\n", row.name,
                    row.paperNormalized, rate * 100.0, normalized,
                    std::string(static_cast<std::size_t>(normalized * 30.0),
                                '#')
                        .c_str());
    }
}

void
printOnload(const PaperRuns &r)
{
    printTitle("Extension: offloading vs onloading (Piglet-style)");
    std::printf("%-12s %10s %10s %12s %12s %14s %10s\n", "server",
                "med ms", "std ms", "app cpu %", "io-core %",
                "bus crossings", "watts*");
    auto row = [](const char *name, const ScenarioResult &run,
                  double ioCore, double watts) {
        std::printf("%-12s %10.3f %10.4f %12.2f %12.1f %14llu %10.1f\n",
                    name, run.interarrivalMs.median(),
                    run.interarrivalMs.stddev(), run.serverCpuPct.mean(),
                    ioCore,
                    static_cast<unsigned long long>(run.serverBusCrossings),
                    watts);
    };
    // *active silicon beyond idle: P4 core 68 W, XScale 0.5 W (paper
    // Section 1.1 argument #3).
    row("idle", r.idle, 0.0, 0.0);
    row("simple", r.simple, 0.0, 68.0 * 0.046); // ~4.6 % of a core
    row("onloaded", r.onloaded, r.onloadIoCorePct, 68.0);
    row("offloaded", r.offloaded, 0.0, 0.5);
}

} // namespace

int
main()
{
    const sim::SimTime duration = benchDuration();
    std::printf("HYDRA paper reproduction: Section 6.4 TiVo evaluation "
                "and the Section 1.1 onload comparison\n");
    std::printf("(simulated duration per scenario: %.0f s; "
                "set HYDRA_BENCH_SECONDS to change)\n",
                sim::toSeconds(duration));

    const PaperRuns runs = runPaperScenarios(duration);
    printFig9(runs);
    printTable2(runs);
    printTable3(runs);
    printTable4(runs);
    printFig10(runs);
    printOnload(runs);

    const std::vector<ShapeCheck> checks = paperChecks(runs);
    printTitle("Shape checks (measured vs bound; margin = distance inside it)");
    std::size_t failed = 0;
    for (const ShapeCheck &c : checks) {
        failed += c.pass() ? 0 : 1;
        std::printf("%-4s %-42s %14.4f %c %8.2f  margin %+.4f\n",
                    c.pass() ? "ok" : "FAIL", c.name.c_str(), c.measured,
                    c.relation, c.bound, c.margin());
    }
    std::printf("\n%zu of %zu shape checks failed\n", failed, checks.size());
    return shapeExitCode(checks);
}
