/**
 * @file
 * hydra_fleet — command-line driver for multi-host scale runs
 * (DESIGN.md §14).
 *
 * Builds an N-host fleet on one shared fabric, drives it with the
 * open-loop load generator, and prints the measurement set a capacity
 * study needs: offered vs delivered, end-to-end delivery latency
 * percentiles (p50/p99/p999), payload-copy accounting, and per-host
 * CPU (host CPU + NIC firmware busy time over the window).
 *
 * Flags are declared once in main()'s cli::FlagSet; an unknown flag or
 * a malformed value prints the usage text generated from it (exit 2).
 *
 * --chaos arms the deterministic fault injector (same grammar as
 * hydra_sim). Scheduled resets match fleet NICs by name ("host0-nic",
 * "host1-nic", ...).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "dev/device.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "obs/metrics.hh"

using namespace hydra;

namespace {

void
printTable(const fleet::LoadgenReport &report)
{
    std::printf("fleet: %zu hosts, %zu streams (%zu remote, %zu local)\n",
                report.hosts, report.streams, report.remoteStreams,
                report.localStreams);
    std::printf(
        "load:  offered %llu, delivered %llu (%.1f%%), churned %llu, "
        "write failures %llu\n",
        static_cast<unsigned long long>(report.offered),
        static_cast<unsigned long long>(report.delivered),
        report.offered
            ? 100.0 * static_cast<double>(report.delivered) /
                  static_cast<double>(report.offered)
            : 0.0,
        static_cast<unsigned long long>(report.churned),
        static_cast<unsigned long long>(report.writeFailures));
    std::printf(
        "rate:  %.0f msgs/virtual-sec over %.1f ms window "
        "(simulated in %.1f ms wall)\n",
        report.deliveredPerVirtualSec,
        static_cast<double>(report.elapsed) / 1e6, report.wallMs);
    std::printf("copies: wire %llu (one per cross-host message), "
                "zero-copy-path copies %llu (0 = no hidden copies)\n",
                static_cast<unsigned long long>(report.wireCopies),
                static_cast<unsigned long long>(report.zeroCopies));
    std::printf("latency (write -> handler, us): p50 %.1f  p99 %.1f  "
                "p999 %.1f  max %.1f  [n=%llu]\n",
                report.latency.p50 / 1e3, report.latency.p99 / 1e3,
                report.latency.p999 / 1e3,
                static_cast<double>(report.latency.max) / 1e3,
                static_cast<unsigned long long>(report.latency.count));
    std::printf("%-8s %10s %12s %12s %8s\n", "host", "streams",
                "delivered", "busy-ms", "cpu%");
    const double window = static_cast<double>(report.elapsed);
    for (const auto &slice : report.perHost) {
        std::printf("%-8s %10zu %12llu %12.2f %7.1f%%\n",
                    slice.host.c_str(), slice.streamsHomed,
                    static_cast<unsigned long long>(slice.delivered),
                    static_cast<double>(slice.busyNs) / 1e6,
                    window > 0.0 ? 100.0 *
                                       static_cast<double>(slice.busyNs) /
                                       window
                                 : 0.0);
    }
}

void
printJson(const fleet::LoadgenReport &report)
{
    std::printf("{\n");
    std::printf("  \"hosts\": %zu,\n", report.hosts);
    std::printf("  \"streams\": %zu,\n", report.streams);
    std::printf("  \"remote_streams\": %zu,\n", report.remoteStreams);
    std::printf("  \"offered\": %llu,\n",
                static_cast<unsigned long long>(report.offered));
    std::printf("  \"delivered\": %llu,\n",
                static_cast<unsigned long long>(report.delivered));
    std::printf("  \"churned\": %llu,\n",
                static_cast<unsigned long long>(report.churned));
    std::printf("  \"write_failures\": %llu,\n",
                static_cast<unsigned long long>(report.writeFailures));
    std::printf("  \"wire_copies\": %llu,\n",
                static_cast<unsigned long long>(report.wireCopies));
    std::printf("  \"delivered_per_virtual_sec\": %.1f,\n",
                report.deliveredPerVirtualSec);
    std::printf("  \"latency_ns\": {\"p50\": %.1f, \"p99\": %.1f, "
                "\"p999\": %.1f, \"max\": %llu, \"count\": %llu},\n",
                report.latency.p50, report.latency.p99,
                report.latency.p999,
                static_cast<unsigned long long>(report.latency.max),
                static_cast<unsigned long long>(report.latency.count));
    std::printf("  \"per_host\": [");
    for (std::size_t i = 0; i < report.perHost.size(); ++i) {
        const auto &slice = report.perHost[i];
        std::printf("%s\n    {\"host\": \"%s\", \"streams\": %zu, "
                    "\"delivered\": %llu, \"busy_ns\": %llu}",
                    i ? "," : "", slice.host.c_str(),
                    slice.streamsHomed,
                    static_cast<unsigned long long>(slice.delivered),
                    static_cast<unsigned long long>(slice.busyNs));
    }
    std::printf("\n  ]\n}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetConfig fleetConfig;
    fleet::LoadgenConfig load;
    exec::ExecutorKind kind = exec::ExecutorKind::Sim;
    bool json = false;
    bool printMetrics = false;
    std::string metricsOut;

    cli::FlagSet flags("hydra_fleet");
    flags.value("--hosts", "N", cli::count(fleetConfig.hosts, 1));
    flags.value("--streams", "N", cli::count(load.streams, 1));
    flags.value("--rate", "MSGS_PER_SEC", [&](const std::string &value) {
        std::uint64_t rate = 0;
        if (!cli::parseUnsigned(value, rate))
            return false;
        load.offeredMsgsPerSec = static_cast<double>(rate);
        return true;
    });
    flags.value("--bytes", "N", cli::count(load.messageBytes, 8));
    flags.value("--duration-ms", "N",
                cli::duration(load.duration, sim::kMillisecond, 1));
    flags.value("--tick-us", "N",
                cli::duration(load.tick, sim::kMicrosecond, 1));
    flags.value("--churn", "N", cli::count(load.churnPerTick));
    flags.toggle("--remote-only", load.remoteOnly);
    flags.toggle("--drivers", load.useDrivers);
    flags.toggle("--background-load", fleetConfig.backgroundLoad);
    flags.toggle("--json", json);
    flags.toggle("--metrics", printMetrics);
    cli::addRunFlags(flags, kind, fleetConfig.seed, metricsOut);
    if (!flags.parse(argc, argv))
        return 2;

    auto executor = exec::makeExecutor(kind);
    fleet::Fleet fleet(*executor, fleetConfig);

    // Chaos reset schedule: scheduled resets name fleet NICs.
    std::vector<dev::Device *> nics;
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        nics.push_back(&fleet.host(h).nic());
    dev::scheduleChaosResets(*executor, nics);

    const fleet::LoadgenReport report = fleet::runOpenLoop(fleet, load);

    if (json)
        printJson(report);
    else
        printTable(report);

    if (printMetrics)
        std::printf("\n%s\n",
                    obs::MetricsRegistry::instance().toJson().c_str());
    if (!metricsOut.empty()) {
        if (!cli::writeArtifact(flags.tool(), metricsOut,
                                [](std::ostream &out) {
                                    out << obs::MetricsRegistry::instance()
                                               .toJson()
                                        << "\n";
                                }))
            return 1;
        if (!json)
            std::printf("(wrote metrics to %s)\n", metricsOut.c_str());
    }

    // A run that delivered nothing (or saw channel-layer failures) is
    // a broken testbed, not a measurement.
    if (report.delivered == 0 || report.writeFailures != 0) {
        std::fprintf(stderr, "hydra_fleet: run did not deliver cleanly\n");
        return 1;
    }
    return 0;
}
