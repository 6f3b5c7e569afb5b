/**
 * @file
 * Fleet scale bench (DESIGN.md §14): what the multi-host refactor
 * buys.
 *
 * Two measurements:
 *
 *  1. Registry-size ladder — 4 hosts on the *threaded* executor,
 *     10k -> 100k (-> 1M with --full) live streams, reporting
 *     delivery p50/p99/p999 and per-host CPU. Every rung offers the
 *     same total load (2M msgs/s for 20 ms, ~39,800 messages), so the
 *     load per stream *falls* as the ladder climbs: the axis is the
 *     size of the stream registry and route tables, not load per
 *     stream. What it shows is that registry size does not move
 *     latency (the wire fabric demuxes by ChannelId); it says nothing
 *     about how latency scales with per-stream load.
 *
 *  2. Host scaling — virtual-time goodput of 1 host vs 4 hosts at
 *     the same (saturating) offered load and stream count, measured
 *     deterministic under the sim engine, so this is a property of
 *     the model, not of the machine running the bench. Reported
 *     only: the >= 2x acceptance bar for 4 hosts is held by
 *     scripts/bench_gate.py on BM_FleetOpenLoop.
 *
 * Usage: fleet_scale [--full] [--json FILE]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"

using namespace hydra;

namespace {

// ---------------------------------------------- registry-size ladder

fleet::LoadgenReport
ladderRun(std::size_t streams)
{
    auto executor = exec::makeExecutor(exec::ExecutorKind::Threaded);
    fleet::FleetConfig config;
    config.hosts = 4;
    fleet::Fleet fleet(*executor, config);

    fleet::LoadgenConfig load;
    load.streams = streams;
    load.messageBytes = 256;
    load.offeredMsgsPerSec = 2e6;
    load.duration = sim::milliseconds(20);
    return runOpenLoop(fleet, load);
}

void
printLadderRow(const fleet::LoadgenReport &report)
{
    double cpuLo = 1e18;
    double cpuHi = 0.0;
    for (const auto &slice : report.perHost) {
        const double pct = 100.0 * static_cast<double>(slice.busyNs) /
                           static_cast<double>(report.elapsed);
        cpuLo = std::min(cpuLo, pct);
        cpuHi = std::max(cpuHi, pct);
    }
    std::printf("%9zu %10llu %10llu %9.1f %9.1f %9.1f %7.0f-%-4.0f %9.0f\n",
                report.streams,
                static_cast<unsigned long long>(report.offered),
                static_cast<unsigned long long>(report.delivered),
                report.latency.p50 / 1e3, report.latency.p99 / 1e3,
                report.latency.p999 / 1e3, cpuLo, cpuHi, report.wallMs);
}

// ------------------------------------------------------ host scaling

fleet::LoadgenReport
scalingRun(std::size_t hosts)
{
    auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
    fleet::FleetConfig config;
    config.hosts = hosts;
    fleet::Fleet fleet(*executor, config);

    fleet::LoadgenConfig load;
    load.streams = 1000;
    load.messageBytes = 256;
    load.offeredMsgsPerSec = 5e6; // saturating: ~4x 1-host capacity
    load.duration = sim::milliseconds(20);
    return runOpenLoop(fleet, load);
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::string jsonOut;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            full = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonOut = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--full] [--json FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    // 1. Registry-size ladder (threaded executor, 4 hosts).
    std::printf("== registry-size ladder: live streams at a fixed total "
                "load (2M msgs/s for 20 ms, all rungs), 4 hosts, "
                "threaded executor ==\n");
    std::printf("%9s %10s %10s %9s %9s %9s %12s %9s\n", "streams",
                "offered", "delivered", "p50-us", "p99-us", "p999-us",
                "cpu%lo-hi", "wall-ms");
    std::vector<fleet::LoadgenReport> ladder;
    std::vector<std::size_t> rungs{10000, 100000};
    if (full)
        rungs.push_back(1000000);
    for (std::size_t streams : rungs) {
        ladder.push_back(ladderRun(streams));
        printLadderRow(ladder.back());
        if (ladder.back().delivered == 0 ||
            ladder.back().writeFailures != 0) {
            std::fprintf(stderr, "ladder rung %zu did not run cleanly\n",
                         streams);
            return 1;
        }
    }

    // 2. Host scaling (sim executor, deterministic).
    const fleet::LoadgenReport one = scalingRun(1);
    const fleet::LoadgenReport four = scalingRun(4);
    const double ratio =
        one.deliveredPerVirtualSec > 0.0
            ? four.deliveredPerVirtualSec / one.deliveredPerVirtualSec
            : 0.0;
    std::printf("\n== host scaling: saturating open loop, "
                "1000 streams, sim executor ==\n");
    std::printf("1 host:  %12.0f msgs/virtual-sec\n",
                one.deliveredPerVirtualSec);
    std::printf("4 hosts: %12.0f msgs/virtual-sec\n",
                four.deliveredPerVirtualSec);
    std::printf("scaling: %.2fx (gated >= 2x on BM_FleetOpenLoop by "
                "bench_gate.py)\n",
                ratio);

    if (!jsonOut.empty()) {
        std::ofstream out(jsonOut);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonOut.c_str());
            return 1;
        }
        char stamp[64] = "";
        const std::time_t now = std::time(nullptr);
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%S%z",
                      std::localtime(&now));
        out << "{\n  \"bench\": \"fleet_scale\",\n  \"date\": \"" << stamp
            << "\",\n";
        out << "  \"scale_ladder\": [";
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            const auto &r = ladder[i];
            out << (i ? "," : "") << "\n    {\"hosts\": " << r.hosts
                << ", \"streams\": " << r.streams
                << ", \"offered\": " << r.offered
                << ", \"delivered\": " << r.delivered
                << ", \"p50_ns\": " << r.latency.p50
                << ", \"p99_ns\": " << r.latency.p99
                << ", \"p999_ns\": " << r.latency.p999
                << ", \"wall_ms\": " << r.wallMs << ", \"per_host\": [";
            for (std::size_t h = 0; h < r.perHost.size(); ++h)
                out << (h ? "," : "") << "{\"host\": \""
                    << r.perHost[h].host
                    << "\", \"busy_ns\": " << r.perHost[h].busyNs
                    << ", \"delivered\": " << r.perHost[h].delivered
                    << "}";
            out << "]}";
        }
        out << "\n  ],\n";
        out << "  \"host_scaling\": {\"one_host_vmsgs_per_sec\": "
            << one.deliveredPerVirtualSec
            << ", \"four_host_vmsgs_per_sec\": "
            << four.deliveredPerVirtualSec << ", \"ratio\": " << ratio
            << ", \"acceptance_min\": 2.0}\n}\n";
        std::printf("\n(wrote %s)\n", jsonOut.c_str());
    }

    return 0;
}
