/**
 * @file
 * The benchmark's workloads. Each round builds one fresh testbed or
 * fleet from the seed, runs it on the deterministic sim engine and
 * returns what it measured: host times, virtual-time results (which
 * repeat exactly under one seed), per-layer counts and output checks.
 */

#ifndef HYDRA_PERFBENCH_WORKLOAD_HH
#define HYDRA_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hh"

namespace perfbench {

/** A named value with its unit; samples > 0 marks a percentile. */
struct Value
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** One output check. */
struct Check
{
    std::string name;
    bool ok = true;
};

/** What one round measured. */
struct Round
{
    /** Host seconds: building the testbed/fleet and its streams. */
    double setupS = 0.0;
    /** Host seconds: the measured run (executor running). */
    double runS = 0.0;
    /** Host seconds: the whole round, teardown included. */
    double wallS = 0.0;
    /**
     * Host seconds of each fixed virtual slice of the measured window.
     * Every round of one seed does the same work in slice k. Fleet
     * rounds run their window in slices; TiVo's Testbed::run is one
     * call, so its one slice is the whole run.
     */
    std::vector<double> sliceS;
    /** Virtual seconds the slices cover. */
    double virtualS = 0.0;

    std::uint64_t delivered = 0;
    std::uint64_t churnOps = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Run-phase counts the ledger prices (not part of virtualOut). */
    std::uint64_t runEvents = 0;
    std::uint64_t runCacheLines = 0;
    /** Timer events pending when the run started (ladder shape). */
    std::size_t pendingAtStart = 0;

    std::vector<Check> checks;
    /** Virtual-time results: identical for every round of one seed. */
    std::vector<Value> virtualOut;
    /** Per-layer counts: identical for every round of one seed. */
    std::vector<Value> layerCounts;
    /** Host-side counters that may differ between rounds. */
    std::vector<Value> hostCounts;
};

enum class WorkloadKind { TivoOffloaded, FleetOpenLoop, FleetChurn };

/** One round of the paper's fully offloaded TiVo scenario. */
Round runTivoRound(std::uint64_t seed, SpanRecorder *trace);

/** Build and tear down the TiVo testbed; host seconds of the build. */
double tivoSetupOnce(std::uint64_t seed);

/**
 * One round of a fleet workload, driven by the benchmark's own open-
 * loop pacer. The seed names the streams, so it moves their placement.
 */
Round runFleetRound(WorkloadKind kind, std::uint64_t seed,
                    SpanRecorder *trace);

/** Build and tear down the fleet and its streams; host seconds of the
 * build. */
double fleetSetupOnce(std::uint64_t seed);

/**
 * Run the fleet pacer and fleet::runOpenLoop on the same configuration
 * and window; true when delivered, goodput and the p50/p99/p999 of
 * write->handler latency agree exactly. Prints both.
 */
bool crossCheckPacer(WorkloadKind kind);

} // namespace perfbench

#endif // HYDRA_PERFBENCH_WORKLOAD_HH
