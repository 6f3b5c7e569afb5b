/**
 * @file
 * hydra_perfbench — the repository's benchmark. One workload per
 * invocation, on the deterministic sim engine, in one thread:
 *
 *   hydra_perfbench --workload tivo_offloaded|fleet_openloop|fleet_churn
 *                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *   hydra_perfbench --crosscheck
 *
 * It repeats rounds (fresh testbed or fleet each) until S host seconds
 * have passed, checks every round's outputs and that every round of
 * the seed repeats the same virtual-time results, and prints a report
 * whose last line is one JSON object. --trace 0 reports the end-to-end
 * metrics; --trace 1 alternates untraced and traced rounds and reports
 * the per-layer ledger, whose rows plus unattributed time add up to
 * the traced wall time. See README.md beside this file.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "workload.hh"

using namespace perfbench;
using hydra::SampleSet;

namespace {

/** setup_s is the fastest of this many builds, paced across the run. */
constexpr std::size_t kSetups = 150;
/**
 * The ledger closes when no row is negative and the rows leave at most
 * this share of the traced wall time unattributed.
 */
constexpr double kMaxUnattributedShare = 0.1;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload tivo_offloaded|fleet_openloop|"
                 "fleet_churn --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n"
                 "       %s --crosscheck\n",
                 argv0, argv0);
    return 2;
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    if (!text || !*text)
        return false;
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end;
}

/** Shortest text that reads back as exactly @p value. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
    return ec == std::errc() ? std::string(buffer, ptr) : "0";
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::TivoOffloaded: return "tivo_offloaded";
      case WorkloadKind::FleetOpenLoop: return "fleet_openloop";
      case WorkloadKind::FleetChurn: return "fleet_churn";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind kind :
         {WorkloadKind::TivoOffloaded, WorkloadKind::FleetOpenLoop,
          WorkloadKind::FleetChurn}) {
        if (name == workloadName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
sameValues(const std::vector<Value> &a, const std::vector<Value> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].name != b[i].name || a[i].value != b[i].value)
            return false;
    return true;
}

void
printValues(const char *title, const std::vector<Value> &values)
{
    std::printf("%s\n", title);
    for (const Value &v : values) {
        std::printf("  %-34s %20s %-8s", v.name.c_str(),
                    number(v.value).c_str(), v.unit.c_str());
        if (v.samples > 0) {
            // A p-th percentile has n * (1 - p) samples beyond it.
            const bool p999 = v.name.find("p999") != std::string::npos;
            const bool p99 = !p999 && v.name.find("p99") != std::string::npos;
            const double tail = p999 ? 1e-3 : p99 ? 1e-2 : 0.5;
            std::printf(" [n=%llu, beyond=%.0f]",
                        static_cast<unsigned long long>(v.samples),
                        std::floor(static_cast<double>(v.samples) * tail));
        }
        std::printf("\n");
    }
}

/** Everything one invocation measured. */
struct Run
{
    WorkloadKind kind = WorkloadKind::TivoOffloaded;
    std::uint64_t seed = 0;
    std::vector<Round> plain;
    std::vector<Round> traced;
    /** Host seconds of every build: each untraced round's, plus
     * build-only repeats. */
    SampleSet setups;
    /** Peak RSS through the first round. It keeps growing over later
     * rounds, so a peak after them would depend on how many ran. */
    double peakRssMb = 0.0;
    /** Ladder constants, calibrated before the first traced round and
     * after each one. */
    SampleSet nsPerLine;
    SampleSet nsPerEvent;
};

/** Calibrate the cache-model ladder and, on TiVo, the event kernel's. */
void
calibrate(Run &run)
{
    run.nsPerLine.add(cacheNsPerLine());
    if (run.kind == WorkloadKind::TivoOffloaded)
        run.nsPerEvent.add(simNsPerEvent(run.plain.front().pendingAtStart));
}

/**
 * Host seconds of the measured window with the noise taken out slice
 * by slice: each slice's fastest time over the untraced rounds, summed.
 * Every round of one seed does the same work in slice k.
 */
double
bestWindowS(const std::vector<Round> &rounds)
{
    std::vector<double> best = rounds.front().sliceS;
    for (const Round &round : rounds)
        for (std::size_t k = 0; k < best.size(); ++k)
            best[k] = std::min(best[k], round.sliceS[k]);
    double total = 0.0;
    for (double s : best)
        total += s;
    return total;
}

/**
 * End-to-end metrics from the untraced rounds. Host noise here only
 * ever slows work down (neighbours contend for memory), and the calm
 * moments are short, so host times are the fastest of many short
 * samples: the fastest build, and the window's fastest slices.
 * README.md gives the spread across runs of each choice tried.
 */
std::vector<Value>
endToEnd(const Run &run)
{
    const Round &first = run.plain.front();
    const double bestS = bestWindowS(run.plain);
    std::vector<Value> out = {
        {"setup_s", run.setups.min(), "s", 0},
        {"sim_s_per_wall_s", first.virtualS / bestS, "ratio", 0},
        {"msgs_per_wall_s", static_cast<double>(first.delivered) / bestS,
         "1/s", 0},
        {"peak_rss_mb", run.peakRssMb, "MiB", 0},
    };
    for (const char *name :
         {"vlatency_p50_vus", "vlatency_p999_vus", "vgoodput_msgs_s"})
        for (const Value &v : run.plain.front().virtualOut)
            if (v.name == name)
                out.push_back(v);
    return out;
}

/** Host time of one ledger row, summed over the traced rounds. */
struct Row
{
    std::string name;
    double ns = 0.0;
    double ops = 0.0;
    std::string pricing;
};

/**
 * Print the ledger of the traced rounds and return the per-layer
 * metrics. Rows are span times of the benchmark's calls into each
 * layer, with ladder-priced work carved out of the span that contains
 * it; unattributed is the traced wall time minus every row.
 */
std::vector<Value>
ledger(const Run &run, const SpanRecorder &recorder)
{
    const bool fleet = run.kind != WorkloadKind::TivoOffloaded;
    const auto span = [&](const char *name) {
        auto it = recorder.totals().find(name);
        return it == recorder.totals().end() ? SpanTotals{} : it->second;
    };
    const auto spanRow = [&](const char *row, const char *name, bool self) {
        const SpanTotals t = span(name);
        return Row{row, static_cast<double>(self ? t.selfNs : t.totalNs),
                   static_cast<double>(t.count), std::string("span ") + name};
    };

    double wallNs = 0.0, events = 0.0, lines = 0.0;
    SampleSet wallTraced, wallPlain;
    for (const Round &round : run.traced) {
        wallNs += round.wallS * 1e9;
        events += static_cast<double>(round.runEvents);
        lines += static_cast<double>(round.runCacheLines);
        wallTraced.add(round.wallS);
    }
    for (const Round &round : run.plain)
        wallPlain.add(round.wallS);
    const double rounds = static_cast<double>(run.traced.size());

    // The fastest calibration prices every traced round. Host noise
    // only slows a ladder down, and one that reads slower than the
    // round it is carved out of would drive the rest of the round
    // below 0. Calibrations spread over the traced rounds make it
    // unlikely that all of them read slow while a round ran fast.
    const double nsPerLine = run.nsPerLine.min();
    const Row cache{"hw.cache", lines * nsPerLine, lines, "ladder"};
    double nsPerEvent = 0.0;
    std::vector<Row> rows;
    if (fleet) {
        // exec.run's self time is the event kernel plus everything the
        // events run (NIC, net, delivery to the handlers); the cache
        // model's part of it is carved out by its ladder.
        const double runSelf = static_cast<double>(span("exec.run").selfNs);
        nsPerEvent = events > 0 ? runSelf / events : 0.0;
        rows = {spanRow("setup", "fleet.setup", false),
                spanRow("core.create", "core.create", false),
                spanRow("core.destroy", "core.destroy", false),
                spanRow("common.payload_build", "common.payload_build", false),
                spanRow("core.write", "core.write", true),
                cache,
                {"exec", runSelf - cache.ns, events,
                 "span exec.run self - hw.cache"}};
    } else {
        // Testbed::run is one call: price the event kernel and the
        // cache model by their ladders; the rest of run() is the
        // modelled pipeline (Offcodes, channels, devices, net).
        nsPerEvent = run.nsPerEvent.min();
        const Row exec{"exec", events * nsPerEvent, events, "ladder"};
        rows = {spanRow("setup", "tivo.setup", false), cache, exec,
                {"tivo.run_other",
                 static_cast<double>(span("tivo.run").totalNs) - cache.ns -
                     exec.ns,
                 rounds, "span tivo.run - ladders"}};
    }
    double attributed = 0.0;
    for (const Row &row : rows)
        attributed += row.ns;
    rows.push_back({"unattributed", wallNs - attributed, rounds,
                    "traced wall - rows"});
    const double overhead = wallTraced.median() / wallPlain.median() - 1.0;

    std::printf("ledger over %zu traced rounds (rows + unattributed = "
                "traced wall):\n",
                run.traced.size());
    std::printf("  %-22s %12s %8s %14s %12s  %s\n", "row", "ms/round",
                "share", "ops/round", "ns/op", "priced by");
    double closure = 0.0;
    for (const Row &row : rows) {
        closure += row.ns;
        std::printf("  %-22s %12.3f %8.4f %14.1f %12.1f  %s\n",
                    row.name.c_str(), row.ns / rounds / 1e6, row.ns / wallNs,
                    row.ops / rounds, row.ops > 0 ? row.ns / row.ops : 0.0,
                    row.pricing.c_str());
    }
    std::printf("  %-22s %12.3f %8.4f  (traced wall %.3f ms/round)\n", "sum",
                closure / rounds / 1e6, closure / wallNs,
                wallNs / rounds / 1e6);
    std::printf("ladders (fastest of %zu calibrations): "
                "hw::CacheModel::access %.3f ns/line x %.0f "
                "lines/round; events %.3f ns/event (%s) x %.0f "
                "events/round\n",
                run.nsPerLine.count(), nsPerLine, lines / rounds, nsPerEvent,
                fleet ? "exec.run self time" : "SimExecutor ladder",
                events / rounds);
    std::printf("tracing overhead: %+.2f%% (median round wall, traced vs "
                "untraced)\n",
                overhead * 100.0);

    // Per call of each wrapped function; 0 where this workload never
    // makes the call.
    const auto perCall = [&](const char *name, bool self, double scale) {
        const SpanTotals t = span(name);
        return t.count ? static_cast<double>(self ? t.selfNs : t.totalNs) /
                             static_cast<double>(t.count) / scale
                       : 0.0;
    };
    printValues("per call (traced rounds):",
                {{"core.write_ns", perCall("core.write", true, 1.0), "ns", 0},
                 {"core.create_ns", perCall("core.create", false, 1.0), "ns",
                  0},
                 {"core.destroy_ns", perCall("core.destroy", false, 1.0),
                  "ns", 0},
                 {"common.payload_build_ns",
                  perCall("common.payload_build", false, 1.0), "ns", 0},
                 {"tivo.setup_ms", perCall("tivo.setup", false, 1e6), "ms",
                  0}});

    const auto share = [&](const char *name) {
        for (const Row &row : rows)
            if (row.name == name)
                return row.ns / wallNs;
        return 0.0;
    };
    std::vector<Value> out = run.plain.front().layerCounts;
    const std::vector<Value> &host = run.traced.back().hostCounts;
    out.insert(out.end(), host.begin(), host.end());
    const std::vector<Value> priced = {
        {"exec.ns_per_event", nsPerEvent, "ns", 0},
        {"hw.cache.ns_per_line", nsPerLine, "ns", 0},
        {"hw.cache.share", share("hw.cache"), "fraction", 0},
        {"exec.share", share("exec"), "fraction", 0},
        {"setup.share", share("setup"), "fraction", 0},
        {"core.create.share", share("core.create"), "fraction", 0},
        {"core.destroy.share", share("core.destroy"), "fraction", 0},
        {"core.write.share", share("core.write"), "fraction", 0},
        {"common.payload_build.share", share("common.payload_build"),
         "fraction", 0},
        {"tivo.run_other.share", share("tivo.run_other"), "fraction", 0},
        {"unattributed.share", share("unattributed"), "fraction", 0},
        {"unattributed_ms", rows.back().ns / rounds / 1e6, "ms", 0},
        {"traced_wall_ms", wallNs / rounds / 1e6, "ms", 0},
        {"tracing_overhead", overhead, "fraction", 0},
    };
    out.insert(out.end(), priced.begin(), priced.end());
    return out;
}

/**
 * The ledger closes when no row is negative (a ladder that over-prices
 * drives tivo.run_other below 0) and the rows leave at most
 * kMaxUnattributedShare of the traced wall time unattributed (a span
 * missing from the rows shows up there).
 */
bool
ledgerCloses(const std::vector<Value> &layers)
{
    for (const Value &v : layers) {
        if (v.name.ends_with(".share") && v.value < 0.0)
            return false;
        if (v.name == "unattributed.share" && v.value > kMaxUnattributedShare)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    std::uint64_t seconds = 0;
    std::uint64_t trace = 0;
    std::string outDir;
    bool crosscheck = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--workload" && value && parseWorkload(value, run.kind)) {
            haveWorkload = true;
            ++i;
        } else if (arg == "--seed" && parseU64(value, run.seed)) {
            haveSeed = true;
            ++i;
        } else if (arg == "--seconds" && parseU64(value, seconds)) {
            haveSeconds = true;
            ++i;
        } else if (arg == "--trace" && parseU64(value, trace) && trace <= 1) {
            ++i;
        } else if (arg == "--out-dir" && value) {
            outDir = value;
            ++i;
        } else if (arg == "--crosscheck") {
            crosscheck = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (crosscheck) {
        const bool open = crossCheckPacer(WorkloadKind::FleetOpenLoop);
        const bool churn = crossCheckPacer(WorkloadKind::FleetChurn);
        std::printf("crosscheck: %s\n", open && churn ? "match" : "MISMATCH");
        return open && churn ? 0 : 1;
    }
    if (!haveWorkload || !haveSeed || !haveSeconds)
        return usage(argv[0]);

    const bool fleet = run.kind != WorkloadKind::TivoOffloaded;
    const auto round = [&](SpanRecorder *recorder) {
        return fleet ? runFleetRound(run.kind, run.seed, recorder)
                     : runTivoRound(run.seed, recorder);
    };

    // Rounds until the time is up; a traced run alternates untraced
    // and traced rounds so that it measures its own tracing overhead.
    SpanRecorder recorder;
    const std::int64_t start = hostNs();
    const double budgetNs = static_cast<double>(seconds) * 1e9;
    const auto buildOnce = [&]() {
        return fleet ? fleetSetupOnce(run.seed) : tivoSetupOnce(run.seed);
    };
    for (std::size_t i = 0;; ++i) {
        if (trace == 1 && i % 2 == 1) {
            // Ladders are calibrated before the first traced round and
            // after each one, so that they sample the whole traced span.
            if (run.traced.empty())
                calibrate(run);
            run.traced.push_back(round(&recorder));
            recorder.fold();
            calibrate(run);
        } else {
            run.plain.push_back(round(nullptr));
            run.setups.add(run.plain.back().setupS);
        }
        if (i == 0)
            run.peakRssMb = peakRssMb();
        // Build-only repetitions keep pace with the clock, so that the
        // setup samples span the whole run rather than one moment.
        const double done =
            budgetNs > 0.0
                ? std::min(1.0, static_cast<double>(hostNs() - start) /
                                    budgetNs)
                : 1.0;
        while (static_cast<double>(run.setups.count()) <
               done * static_cast<double>(kSetups))
            run.setups.add(buildOnce());
        if (done >= 1.0 && (trace == 0 || !run.traced.empty()))
            break;
    }
    const double measuredS = static_cast<double>(hostNs() - start) / 1e9;

    // Output checks of every round; every round must also repeat the
    // first one's virtual-time results and layer counts exactly.
    std::vector<Round> all = run.plain;
    all.insert(all.end(), run.traced.begin(), run.traced.end());
    const Round &first = run.plain.front();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    bool repeats = true;
    for (const Round &r : all) {
        attempted += r.attempted;
        failed += r.failed;
        for (const Check &check : r.checks)
            if (!check.ok && std::find(failures.begin(), failures.end(),
                                       check.name) == failures.end())
                failures.push_back(check.name);
        repeats = repeats && sameValues(r.virtualOut, first.virtualOut) &&
                  sameValues(r.layerCounts, first.layerCounts);
    }
    if (!repeats) {
        failures.push_back("rounds_repeat_virtual_results");
        ++failed;
    }

    std::printf("== %s seed %llu: %zu rounds (%zu traced), %zu setups, "
                "in %.2f s ==\n",
                workloadName(run.kind),
                static_cast<unsigned long long>(run.seed), all.size(),
                run.traced.size(), run.setups.count(), measuredS);
    std::printf("untraced rounds, host ms (setup/run):");
    for (const Round &r : run.plain)
        std::printf(" %.2f/%.1f", r.setupS * 1e3, r.runS * 1e3);
    std::printf("\n");
    std::printf("builds, host ms: min %.3f p5 %.3f p10 %.3f p50 %.3f "
                "max %.3f\n",
                run.setups.min() * 1e3, run.setups.percentile(5) * 1e3,
                run.setups.percentile(10) * 1e3, run.setups.median() * 1e3,
                run.setups.max() * 1e3);
    SampleSet simRate;
    for (const Round &r : run.plain) {
        double windowS = 0.0;
        for (double s : r.sliceS)
            windowS += s;
        simRate.add(r.virtualS / windowS);
    }
    const double bestS = bestWindowS(run.plain);
    std::printf("simulated s per host s: rounds p50 %.6f p90 %.6f max "
                "%.6f; fastest slices (%zu per round) %.6f\n",
                simRate.median(), simRate.percentile(90), simRate.max(),
                first.sliceS.size(), first.virtualS / bestS);
    const std::vector<Value> e2e = endToEnd(run);
    printValues("end-to-end (untraced rounds; host times are the fastest "
                "samples):",
                e2e);
    printValues("virtual time (identical in every round of this seed):",
                first.virtualOut);
    printValues("layer counts (per round, run phase):", first.layerCounts);
    printValues("host-side counts (last round):", all.back().hostCounts);

    std::vector<Value> layers;
    if (trace == 1) {
        layers = ledger(run, recorder);
        if (!ledgerCloses(layers)) {
            failures.push_back("ledger_closes");
            ++failed;
        }
    }
    printValues(
        "also reported:",
        {{"churn_ops_per_wall_s",
          static_cast<double>(first.churnOps) / bestS, "1/s", 0},
         {"failed_share",
          attempted ? static_cast<double>(failed) /
                          static_cast<double>(attempted)
                    : 1.0,
          "fraction", 0}});
    const bool correct = failures.empty();
    std::printf("checks: %s\n", correct ? "all passed" : "FAILED");
    for (const std::string &name : failures)
        std::printf("  failed: %s\n", name.c_str());
    // Every value that must repeat exactly under this seed, on one
    // line for the determinism test.
    std::string fingerprint;
    for (const auto *values : {&first.virtualOut, &first.layerCounts})
        for (const Value &v : *values)
            fingerprint += (fingerprint.empty() ? "\"" : ", \"") + v.name +
                           "\": " + number(v.value);
    std::printf("fingerprint: {%s}\n", fingerprint.c_str());

    const std::vector<Value> &metrics = trace == 1 ? layers : e2e;
    if (trace == 1 && !outDir.empty()) {
        const std::string path = outDir + "/spans-" +
                                 workloadName(run.kind) + "-seed" +
                                 std::to_string(run.seed) + ".json";
        if (recorder.write(path))
            std::printf("spans of the last traced round: %s\n", path.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Value &v = metrics[i];
        json += (i ? ", \"" : "\"") + v.name + "\": {\"value\": " +
                number(v.value) + ", \"unit\": \"" + v.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
