#!/usr/bin/env python3
"""Report hydra:: library functions that no program reaches.

Usage: scripts/dead_code.py BUILD_DIR PERFBENCH_BUILD_DIR BINARY...

BUILD_DIR holds the libraries (BUILD_DIR/src/**/*.a) and every BINARY
path is relative to it; PERFBENCH_BUILD_DIR holds hydra_perfbench.
Everything must be compiled at -O0 with -ffunction-sections
-fdata-sections and linked with -Wl,--gc-sections (scripts/check.sh
--dead-code does this): the linker then drops every function no binary
calls, and -O0 inlines nothing, so a function that survives in no
binary has no caller outside the tests.

A function that only tests call is allowed when it is listed in
ALLOWED below with the reason the tests need it. Exit status: 0 when
every dead function is allowed and every allowed one is dead, 1
otherwise (the offenders are listed).
"""

import os
import re
import subprocess
import sys

# Qualified name (no parameter list) -> why the tests need it although
# no program calls it.
ALLOWED = {
    # Test oracles: the tests check the program's answers against them.
    "hydra::ilp::satisfies": "oracle: ILP solutions are checked against every constraint",
    "hydra::ilp::LinearExpr::evaluate": "oracle: used by ilp::satisfies",
    "hydra::odf::constraintName": "oracle: names the violated constraint in test failures",
    "hydra::odf::OdfDocument::toXml": "oracle: the seeded ODF parse/print round trip",
    # Pool-leak checks: zero live payloads at teardown.
    "hydra::payloadPoolStats": "leak check: live payload count at teardown",
    "hydra::payloadPoolTrim": "leak check: resets the pool between cases",
    "hydra::operator==": "leak check: payload contents compared across copies",
    # Log test seam.
    "hydra::Log::setSink": "test seam: captures log lines in tests",
    # Fleet test observables.
    "hydra::fleet::Host::routes": "observable: route table size checked by fleet tests",
    "hydra::fleet::Host::malformedFrames": "observable: hostile wire frames are counted",
    "hydra::net::Network::nodeCount": "observable: fleet tests count network nodes",
    "hydra::net::NfsServer::hasFile": "observable: NFS tests check the server's files",
    "hydra::net::NfsServer::fileContent": "observable: NFS tests read back stored bytes",
    # Singleton reset helpers: tests reset process-wide state between
    # cases until a per-run session replaces the singletons.
    "hydra::obs::Tracer::clear": "reset: singleton tracer between cases",
    "hydra::obs::Tracer::disable": "reset: singleton tracer between cases",
    "hydra::obs::SloEngine::clear": "reset: singleton SLO engine between cases",
    "hydra::obs::SloEngine::ruleCount": "reset: checks the SLO engine was cleared",
    "hydra::obs::FlightRecorder::configure": "reset: singleton flight recorder between cases",
    "hydra::obs::FlightRecorder::clear": "reset: singleton flight recorder between cases",
    "hydra::obs::FlightRecorder::captured": "reset: flight recorder getter checked after clear",
    "hydra::obs::FlightRecorder::dropped": "reset: flight recorder getter checked after clear",
    "hydra::obs::FlightRecorder::size": "reset: flight recorder getter checked after clear",
    "hydra::chaos::ChaosEngine::disable": "reset: singleton chaos engine between cases",
    "hydra::obs::resetSpanIds": "reset: deterministic span ids per case",
    "hydra::obs::setActiveContext": "reset: clears the span context between cases",
    "hydra::obs::CpuAttribution::siteCount": "reset: checks attribution sites were cleared",
}

SYMBOL = re.compile(r"^[0-9a-f]+ [TtWw] (.*hydra::.*)$")


def nm(path):
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    obj = os.path.basename(path)
    for line in out.splitlines():
        if line.endswith(".o:"):
            obj = line[:-1]
            continue
        m = SYMBOL.match(line)
        if m:
            yield obj, m.group(1)


def outermost(symbol):
    """Return (qualified name, name with parameters) of the function a
    symbol belongs to: a lambda or local class maps to its enclosing
    function, and a template's return type is dropped."""
    depth = 0
    start = 0
    i = 0
    while i < len(symbol):
        if symbol.startswith("operator", i) and depth == 0:
            if symbol.startswith(" ", i + len("operator")):
                i += len("operator ")  # conversion: operator bool
                continue
            i += len("operator")
            if symbol.startswith("()", i):
                i += 2
            while i < len(symbol) and symbol[i] in "<>=!+-*/%&|^~[],":
                i += 1
            continue
        c = symbol[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        elif c == "(" and depth == 0:
            name = re.sub(r"\[abi:[^\]]*\]", "", symbol[start:i])
            close = i
            level = 0
            for j in range(i, len(symbol)):
                if symbol[j] == "(":
                    level += 1
                elif symbol[j] == ")":
                    level -= 1
                    if level == 0:
                        close = j
                        break
            return name, name + symbol[i:close + 1]
        i += 1
    return symbol, symbol


def main(argv):
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    build, perfbench, binaries = argv[1], argv[2], argv[3:]
    archives = []
    for root, _, files in os.walk(os.path.join(build, "src")):
        archives += [os.path.join(root, f) for f in files if f.endswith(".a")]
    programs = [os.path.join(build, b) for b in binaries]
    programs.append(os.path.join(perfbench, "hydra_perfbench"))
    for path in programs:
        if not os.access(path, os.X_OK):
            print(f"dead_code: missing binary {path}", file=sys.stderr)
            return 2
    if not archives:
        print(f"dead_code: no libraries under {build}/src", file=sys.stderr)
        return 2

    live = set()
    for path in programs:
        live.update(outermost(s)[1] for _, s in nm(path))
    dead = {}
    for path in sorted(archives):
        for obj, symbol in nm(path):
            name, key = outermost(symbol)
            if name.startswith("hydra::") and key not in live:
                dead.setdefault(key, (name, obj))

    allowed = sorted(k for k, (n, _) in dead.items() if n in ALLOWED)
    offenders = sorted((obj, k) for k, (n, obj) in dead.items()
                       if n not in ALLOWED)
    stale = sorted(set(ALLOWED) - {n for n, _ in dead.values()})
    print(f"dead_code: {len(programs)} binaries, {len(archives)} libraries; "
          f"{len(allowed)} test-only functions allowed")
    for name in stale:
        print(f"dead_code: allowlist entry {name} is no longer test-only; "
              "remove it from ALLOWED")
    if offenders:
        print(f"dead_code: {len(offenders)} library functions have no "
              "caller in any program:")
        for obj, key in offenders:
            print(f"  {obj}: {key}")
    return 1 if offenders or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
