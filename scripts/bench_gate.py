#!/usr/bin/env python3
"""Perf gates over google-benchmark JSON runs (DESIGN.md section 11
overhead budget); the one reader of scripts/bench_baseline.json.

Usage: bench_gate.py BASELINE.json SMOKE.json GATE.json

SMOKE.json is a single pass (one iteration row per benchmark); gate 0
reads it. GATE.json is a run with repetitions; gates 1-5 read its
median aggregates.

 0. Baseline smoke: every benchmark present in both BASELINE.json and
    SMOKE.json must run in at most 2x the baseline's real_time. The
    bound is coarse on purpose: it catches "the fast path regressed to
    deep copies" or "the cache stopped replaying", not
    machine-to-machine noise. Benchmarks present on only one side are
    reported but not fatal, so adding a case does not require
    regenerating the baseline in the same commit.

 1. Histogram hot path: every BM_HistogramRecord row must run in at
    most HYDRA_HIST_RECORD_NS_MAX ns per record (default 15). This is
    the price each instrumented delivery/dispatch site pays, so it is
    gated absolutely rather than relative to a baseline.

 2. Channel throughput: each BM_ChannelThroughput hist:1 row (named
    channel, per-delivery histogram records) is paired with its hist:0
    twin (anonymous channel, uninstrumented) from the SAME run, which
    isolates the telemetry cost from cross-session machine drift
    (gate 0's coarser baseline bound absorbs that instead).
    The *geometric mean* of the pair ratios must stay at most
    HYDRA_CHANNEL_RATIO_MAX (default 1.05, i.e. <5% overhead): a
    single 0.1 s pair on a shared 1-CPU VM has a noise floor around
    +/-10%, well above the budget, but averaging 8 pairs cuts it by
    ~sqrt(8). Each individual pair is additionally bounded by
    HYDRA_CHANNEL_PAIR_MAX (default 1.25) to catch a pathological
    regression confined to one configuration.

 3. Sampling profiler: BM_ProfilerOverhead profile:1 (scopes
    published, profiler enabled, one sample per batch) paired with
    its profile:0 twin (same scopes, profiler disabled) from the SAME
    run. Geomean of the pair ratios must stay at most
    HYDRA_PROFILER_RATIO_MAX (default 1.05); each pair is bounded by
    HYDRA_PROFILER_PAIR_MAX (default 1.25).

 4. Batched pipeline: each BM_BatchedPipeline sites:4 batch:64 row is
    paired with its batch:1 twin from the SAME run. Batching is a
    throughput feature, so batched must never be the slower side:
    geomean and per-pair time ratios must stay at most
    HYDRA_BATCH_RATIO_MAX / HYDRA_BATCH_PAIR_MAX (both default 1.0 --
    the tentpole target is ~0.2x, so unity still leaves the full
    noise floor as headroom). Rows at other site counts (e.g. the
    2-site scaling row) are informational and not gated.

 5. Fleet scaling: BM_FleetOpenLoop exports virtual-time goodput of a
    saturating open loop as the `vmsgs_per_sec` counter; the hosts:4
    / hosts:1 ratio must stay at least HYDRA_FLEET_SCALE_MIN (default
    2.0). This is a virtual-clock property, so the ratio is
    deterministic: adding hosts must keep buying capacity, or the
    fleet refactor's premise (shard the executive, spread the load)
    has regressed. It is the repo's one check of the 4-host bar.

The limits of gates 1-5 are env-overridable for slow or shared machines.
"""

import json
import math
import os
import sys


KNOWN_COUNTERS = ("vmsgs_per_sec",)
BASELINE_RATIO_MAX = 2.0


def load(path):
    """(name -> real_time, name -> {counter -> value}). Prefers
    median aggregates (repetition runs) over single-iteration rows
    when both are present."""
    with open(path) as fh:
        doc = json.load(fh)
    iterations = {}
    medians = {}
    counters = {}
    counter_medians = {}
    for bench in doc.get("benchmarks", []):
        run_type = bench.get("run_type", "iteration")
        if run_type == "iteration":
            name = bench["name"]
            iterations[name] = float(bench["real_time"])
            row = {c: float(bench[c]) for c in KNOWN_COUNTERS
                   if c in bench}
            if row:
                counters[name] = row
        elif (run_type == "aggregate" and
              bench.get("aggregate_name") == "median"):
            name = bench.get("run_name",
                             bench["name"].rsplit("_median", 1)[0])
            medians[name] = float(bench["real_time"])
            row = {c: float(bench[c]) for c in KNOWN_COUNTERS
                   if c in bench}
            if row:
                counter_medians[name] = row
    iterations.update(medians)
    counters.update(counter_medians)
    return iterations, counters


def main():
    if len(sys.argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    baseline, _ = load(sys.argv[1])
    smoke, _ = load(sys.argv[2])
    current, current_counters = load(sys.argv[3])
    record_max = float(os.environ.get("HYDRA_HIST_RECORD_NS_MAX", "15"))
    ratio_max = float(os.environ.get("HYDRA_CHANNEL_RATIO_MAX", "1.05"))

    failed = []

    print(f"{'benchmark':56s} {'baseline':>12s} {'current':>12s} "
          f"{'ratio':>7s}")
    for name in sorted(baseline):
        if name not in smoke:
            print(f"{name:56s} {baseline[name]:12.0f} {'absent':>12s}")
            continue
        ratio = smoke[name] / baseline[name] if baseline[name] else 1.0
        ok = ratio <= BASELINE_RATIO_MAX
        print(f"{name:56s} {baseline[name]:12.0f} {smoke[name]:12.0f} "
              f"{ratio:7.2f}{'' if ok else ' REGRESSION'}")
        if not ok:
            failed.append(f"{name}(baseline)")
    for name in sorted(set(smoke) - set(baseline)):
        print(f"{name:56s} {'(new)':>12s} {smoke[name]:12.0f}")
    print()

    record_rows = [n for n in current if n.startswith("BM_HistogramRecord")]
    if not record_rows:
        print("bench_gate: BM_HistogramRecord missing from current run")
        failed.append("BM_HistogramRecord(absent)")
    for name in sorted(record_rows):
        ok = current[name] <= record_max
        print(f"{name:56s} {current[name]:8.2f} ns/record "
              f"(limit {record_max:.0f}){'' if ok else ' REGRESSION'}")
        if not ok:
            failed.append(name)

    def gate_pairs(bench, on, off, pair_max, geo_max, require=None):
        """Pair each `/{on}` row with its `/{off}` twin from the same
        run; per-pair and geomean ratio limits feed `failed`. When
        `require` is set, only rows containing that substring are
        gated (the rest are informational)."""
        ratios = []
        for name in sorted(current):
            if not name.startswith(bench) or f"/{on}" not in name:
                continue
            if require is not None and require not in name:
                continue
            twin = name.replace(f"/{on}", f"/{off}")
            if twin not in current:
                print(f"bench_gate: {name} has no {off} twin in "
                      "current run")
                failed.append(f"{name}(unpaired)")
                continue
            ratio = current[name] / current[twin] if current[twin] else 1.0
            ratios.append(ratio)
            ok = ratio <= pair_max
            print(f"{name:56s} {ratio:7.3f}x vs {off} "
                  f"(pair limit {pair_max:.2f})"
                  f"{'' if ok else ' REGRESSION'}")
            if not ok:
                failed.append(name)
        if ratios:
            geomean = math.exp(
                sum(math.log(r) for r in ratios) / len(ratios))
            ok = geomean <= geo_max
            print(f"{f'{bench} geomean({on}/{off})':56s} "
                  f"{geomean:7.3f}x "
                  f"(limit {geo_max:.2f}){'' if ok else ' REGRESSION'}")
            if not ok:
                failed.append(f"{bench}(geomean)")
        else:
            print(f"bench_gate: no {bench} {on} rows in current run")
            failed.append(f"{bench}(absent)")

    gate_pairs(
        "BM_ChannelThroughput", "hist:1", "hist:0",
        float(os.environ.get("HYDRA_CHANNEL_PAIR_MAX", "1.25")),
        ratio_max)
    gate_pairs(
        "BM_ProfilerOverhead", "profile:1", "profile:0",
        float(os.environ.get("HYDRA_PROFILER_PAIR_MAX", "1.25")),
        float(os.environ.get("HYDRA_PROFILER_RATIO_MAX", "1.05")))
    gate_pairs(
        "BM_BatchedPipeline", "batch:64", "batch:1",
        float(os.environ.get("HYDRA_BATCH_PAIR_MAX", "1.0")),
        float(os.environ.get("HYDRA_BATCH_RATIO_MAX", "1.0")),
        require="sites:4")

    # Gate 5: more hosts must keep meaning more capacity. The goodput
    # counters come from the sim engine's virtual clock, so the ratio
    # is deterministic.
    scale_min = float(os.environ.get("HYDRA_FLEET_SCALE_MIN", "2.0"))
    wide = "BM_FleetOpenLoop/hosts:4"
    narrow = "BM_FleetOpenLoop/hosts:1"
    if (wide in current_counters and narrow in current_counters and
            "vmsgs_per_sec" in current_counters[wide] and
            "vmsgs_per_sec" in current_counters[narrow]):
        denom = current_counters[narrow]["vmsgs_per_sec"]
        ratio = (current_counters[wide]["vmsgs_per_sec"] / denom
                 if denom else 0.0)
        ok = ratio >= scale_min
        print(f"{'BM_FleetOpenLoop vmsgs_per_sec(4 hosts/1 host)':56s} "
              f"{ratio:7.3f}x (min {scale_min:.2f})"
              f"{'' if ok else ' REGRESSION'}")
        if not ok:
            failed.append("BM_FleetOpenLoop(scaling)")
    else:
        print("bench_gate: BM_FleetOpenLoop vmsgs_per_sec counters "
              "missing from current run")
        failed.append("BM_FleetOpenLoop(absent)")

    if failed:
        print(f"\nbench gate FAILED: {', '.join(failed)}")
        return 1
    print("\nbench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
