"""Simulation-harness economics: virtual seconds replayed per wall second.

The point of :mod:`repro.simtest` is that failure timelines which take
minutes of wall-clock in the real cluster replay in milliseconds under
``SimClock``. This bench quantifies that and guards the properties CI
relies on:

* **determinism** — every scenario's event log is byte-identical across
  two runs at the same seed (the ``repro-diff simtest --seed S`` contract);
* **coverage** — the full matrix passes across a band of seeds;
* **speed** — the whole matrix, every seed, finishes well inside the CI
  smoke budget (a wall-clock regression here means a real sleep leaked
  back into the simulated stack).

Run directly for the table, ``--smoke`` for the CI configuration,
``--json-out PATH`` to also write the ``BENCH`` payload to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.simtest import SCENARIOS, build_scenario, run_scenario  # noqa: E402

from conftest import print_table  # noqa: E402

#: CI budget for the whole smoke run, seconds (the ISSUE gate is < 30).
SMOKE_BUDGET_S = 30.0


def run_band(seeds) -> dict:
    """Run the full matrix for each seed; return per-scenario aggregates."""
    rows = {}
    failures = []
    for name in sorted(SCENARIOS):
        wall = virtual = events = requests = 0.0
        logs_match = True
        for seed in seeds:
            started = time.perf_counter()
            result = run_scenario(build_scenario(name, seed=seed))
            wall += time.perf_counter() - started
            if not result.ok:
                failures.append((name, seed, result.violations))
            virtual += result.stats["virtual_elapsed_s"]
            events += len(result.log)
            requests += len(result.records)
            if seed == seeds[0]:
                rerun = run_scenario(build_scenario(name, seed=seed))
                logs_match &= rerun.event_jsonl() == result.event_jsonl()
        rows[name] = {
            "wall_s": round(wall, 4),
            "virtual_s": round(virtual, 3),
            "speedup": round(virtual / wall, 1) if wall else 0.0,
            "events": int(events),
            "requests": int(requests),
            "deterministic": logs_match,
        }
    return {"rows": rows, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: fewer seeds, hard budget")
    parser.add_argument("--seeds", type=int, default=None,
                        help="seeds per scenario (default: 10, smoke: 3)")
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="also write the BENCH payload to this file")
    args = parser.parse_args()

    seed_count = args.seeds if args.seeds is not None else (3 if args.smoke else 10)
    seeds = list(range(seed_count))

    started = time.perf_counter()
    band = run_band(seeds)
    total_wall = time.perf_counter() - started

    header = ["scenario", "wall_s", "virtual_s", "speedup",
              "events", "deterministic"]
    table = [
        [name, row["wall_s"], row["virtual_s"], f'{row["speedup"]}x',
         row["events"], "yes" if row["deterministic"] else "NO"]
        for name, row in sorted(band["rows"].items())
    ]
    print_table("simtest scenario matrix", header, table)
    print(f"total: {len(SCENARIOS)} scenarios x {seed_count} seeds "
          f"in {total_wall:.2f}s wall")

    ok = not band["failures"] and all(
        row["deterministic"] for row in band["rows"].values()
    )
    for name, seed, violations in band["failures"]:
        print(f"FAIL {name} seed {seed}: {violations}", file=sys.stderr)
    if args.smoke and total_wall > SMOKE_BUDGET_S:
        print(f"FAIL smoke budget: {total_wall:.2f}s > {SMOKE_BUDGET_S}s",
              file=sys.stderr)
        ok = False

    payload = {
        "benchmark": "bench_simtest",
        "bench": "simtest",
        "mode": "smoke" if args.smoke else "full",
        "seeds": seed_count,
        "total_wall_s": round(total_wall, 3),
        "total_virtual_s": round(
            sum(row["virtual_s"] for row in band["rows"].values()), 3
        ),
        "ok": ok,
        "deterministic": all(
            row["deterministic"] for row in band["rows"].values()
        ),
        "scenarios": band["rows"],
    }
    print("BENCH " + json.dumps(payload, sort_keys=True))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
