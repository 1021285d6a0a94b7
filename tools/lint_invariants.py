#!/usr/bin/env python3
"""Repo-specific invariant linter — rules the compilers cannot express.

Run from the repository root (CI runs it as its own job):

    python3 tools/lint_invariants.py

Rules
-----
R1  unit-typed signatures: public device/sim headers must not declare
    function parameters as raw `double` when the parameter name denotes a
    dimensioned quantity (time, energy, power, bandwidth, byte counts) —
    those have strong types in common/units.hpp. Host-side wall-clock
    measurements (`wall_seconds`) are exempt: they measure the harness,
    not the simulation.

R2  estimator purity: the counterfactual replay path
    (src/core/estimator.cpp) must never emit telemetry. Replicas made via
    detached_copy() are detached from the live recorder precisely so an
    estimate cannot leak phantom events; any mention of telemetry in that
    translation unit is a leak waiting to happen.

R3  deterministic randomness: simulations must be bit-reproducible from an
    explicit seed. `std::rand`/`srand` (hidden global state),
    `std::random_device` (non-deterministic), and `std::mt19937` outside
    common/rng.hpp (stream not covered by the repo's seeding discipline)
    are banned in src/. Tests may use std::mt19937 only with an explicit
    seed expression.

R4  simulated time only: src/ must not read the host clock
    (std::chrono::*_clock, gettimeofday, clock_gettime, time(nullptr)).
    All simulation time flows from the event loop; wall-clock timing
    belongs to the bench harness.

R5  one battery model: battery fractions are defined, validated, and
    clamped only in src/energy/ (energy::clamp_fraction /
    BatteryParams::validate). A `std::clamp` applied to a battery or
    fraction quantity anywhere else in src/ silently masks out-of-range
    configuration instead of rejecting it — the clamp-drift bug this rule
    is the regression guard for (SharedMedium::add_client used to clamp
    initial_fraction into [0, 1]).

Exit status is the number of violations (0 = clean).
"""
from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIMENSIONED_PARAM = re.compile(
    r"\bdouble\s+(\w*(?:time|seconds|duration|latency|timeout|deadline"
    r"|energy|joules|power|watts|bandwidth|_bw|bytes|_size)\w*)\s*[,)=]",
    re.IGNORECASE)
R1_EXEMPT_NAMES = {"wall_seconds"}

R3_BANNED = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
]
R3_MT19937 = re.compile(r"\bstd::mt19937(?:_64)?\b")
R3_MT19937_UNSEEDED = re.compile(r"\bstd::mt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}|\(\s*\))")

R4_BANNED = [
    (re.compile(r"\bstd::chrono::(?:system|steady|high_resolution)_clock\b"),
     "host clock via std::chrono"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
]

R2_BANNED = re.compile(r"telemetry|attach_telemetry|recorder")

R5_CLAMP = re.compile(r"\bstd::clamp\b")
R5_BATTERY = re.compile(r"battery|fraction", re.IGNORECASE)


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments, preserving line structure."""
    text = re.sub(r"/\*.*?\*/",
                  lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def lines_of(path: pathlib.Path):
    return strip_comments(path.read_text()).split("\n")


def main() -> int:
    violations: list[str] = []

    def report(path, lineno, rule, what):
        violations.append(f"{path.relative_to(ROOT)}:{lineno}: [{rule}] {what}")

    # R1 — raw double where a unit type exists, public device/sim headers.
    for header in sorted((ROOT / "src").glob("device/*.hpp")) + sorted(
            (ROOT / "src").glob("sim/*.hpp")):
        for i, line in enumerate(lines_of(header), 1):
            for m in DIMENSIONED_PARAM.finditer(line):
                if m.group(1) in R1_EXEMPT_NAMES:
                    continue
                report(header, i, "R1",
                       f"raw double parameter/field '{m.group(1)}' — use the "
                       "strong unit type from common/units.hpp")

    # R2 — no telemetry from the counterfactual replay TU.
    estimator = ROOT / "src" / "core" / "estimator.cpp"
    for i, line in enumerate(lines_of(estimator), 1):
        if R2_BANNED.search(line):
            report(estimator, i, "R2",
                   "telemetry reference in the counterfactual replay path "
                   "(detached_copy() replicas must stay silent)")

    # R3 — deterministic randomness.
    for src in sorted((ROOT / "src").rglob("*.?pp")):
        rel = src.relative_to(ROOT / "src")
        for i, line in enumerate(lines_of(src), 1):
            for pat, name in R3_BANNED:
                if pat.search(line):
                    report(src, i, "R3", f"{name} is banned (seeded Rng only)")
            if str(rel) != "common/rng.hpp" and R3_MT19937.search(line):
                report(src, i, "R3",
                       "std::mt19937 outside common/rng.hpp — use flexfetch::Rng")
    for src in sorted((ROOT / "tests").glob("*.cpp")) + sorted(
            (ROOT / "bench").glob("*.cpp")) + sorted(
            (ROOT / "examples").glob("*.cpp")):
        for i, line in enumerate(lines_of(src), 1):
            for pat, name in R3_BANNED:
                if pat.search(line):
                    report(src, i, "R3", f"{name} is banned (seeded Rng only)")
            if R3_MT19937_UNSEEDED.search(line):
                report(src, i, "R3", "unseeded std::mt19937 — pass an explicit seed")

    # R4 — no host clock in simulation code.
    for src in sorted((ROOT / "src").rglob("*.?pp")):
        for i, line in enumerate(lines_of(src), 1):
            for pat, name in R4_BANNED:
                if pat.search(line):
                    report(src, i, "R4", f"{name} in sim code — simulated time only")

    # R5 — battery fractions are clamped only inside the energy module.
    for src in sorted((ROOT / "src").rglob("*.?pp")):
        rel = src.relative_to(ROOT / "src")
        if rel.parts[0] == "energy":
            continue
        for i, line in enumerate(lines_of(src), 1):
            if R5_CLAMP.search(line) and R5_BATTERY.search(line):
                report(src, i, "R5",
                       "battery/fraction clamp outside src/energy/ — validate "
                       "with BatteryParams::validate() or derive the value "
                       "through the energy module")

    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        for v in violations:
            print("  " + v)
    else:
        print("lint_invariants: clean")
    return min(len(violations), 125)


if __name__ == "__main__":
    sys.exit(main())
