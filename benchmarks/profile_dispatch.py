#!/usr/bin/env python
"""Profile the fleet dispatch hot path and dump the top of the profile.

Runs ONE fleet campaign tick — the same 100-SUO workload as the
``run_all.py`` fleet probe — under ``cProfile`` and prints the top-20
functions by cumulative time (plus the top-20 by internal time, which
is where dispatch-loop regressions actually show up).  CI uploads the
dump as a workflow artifact next to ``/tmp/bench.json`` so a perf-floor
failure comes with the profile that explains it.

Usage::

    python benchmarks/profile_dispatch.py               # print to stdout
    python benchmarks/profile_dispatch.py --out /tmp/profile_dispatch.txt
    python benchmarks/profile_dispatch.py --members 30 --duration 10

The workload is deterministic (fixed fleet seed), so two dumps from the
same code differ only in timings, never in call counts: a changed
``ncalls`` column between two runs is a behavior change, not noise.
See docs/PERF.md for how to read the dump.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from run_all import FLEET_SEED, fleet_probe_spec  # noqa: E402  (same workload)

TOP = 20


def profile_fleet_tick(members: int, duration: float) -> tuple:
    """Run one fleet campaign under cProfile; returns (report, stats).

    The scenario is compiled (fleet built) outside the profile, so the
    dump covers the kernel run alone."""
    from repro.scenarios import CompiledScenario

    compiled = CompiledScenario(fleet_probe_spec(members, duration), FLEET_SEED)
    profiler = cProfile.Profile()
    profiler.enable()
    report = compiled.run()
    profiler.disable()
    return report, pstats.Stats(profiler)


def render(report, stats: pstats.Stats, members: int, duration: float) -> str:
    out = io.StringIO()
    out.write(
        f"fleet dispatch profile: {members} SUOs, {duration:g}s simulated, "
        f"seed {FLEET_SEED}\n"
        f"dispatched {report.dispatched:,} events "
        f"at {report.events_per_sec:,.0f} events/sec\n"
        f"trace digest {report.trace_digest}\n\n"
    )
    stats.stream = out
    stats.sort_stats("cumulative").print_stats(TOP)
    stats.sort_stats("tottime").print_stats(TOP)
    return out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--members", type=int, default=100, help="fleet size (default 100)"
    )
    parser.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated seconds (default 60)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the dump to this file (CI artifact path)",
    )
    args = parser.parse_args()

    report, stats = profile_fleet_tick(args.members, args.duration)
    dump = render(report, stats, args.members, args.duration)
    print(dump, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
