#!/usr/bin/env python3
"""Regression gate over bench JSON output.

Compares a fresh bench JSON (BENCH_engine, BENCH_scale, BENCH_shard,
BENCH_fig7, BENCH_session or BENCH_cache) against the checked-in baseline
under bench/baseline/, cell by cell, and exits non-zero if any cell
regressed:

  * the wall-clock keys (wall_s, events_per_sec) are machine-dependent: a
    cell fails when its events_per_sec dropped by more than
    --max-regression (default 25%);
  * every other key the baseline cell records is a deterministic simulation
    output and must equal the baseline exactly.

The two files must come from the same bench: a baseline whose top-level
`bench` or `figure` differs from the current run's fails, so a baseline
recorded by another binary cannot stay committed. Cells are matched on
(cell, policy). A baseline cell or key missing from the current run fails;
keys only the current run records are ignored, and so are the run's other
top-level parameters and its provenance. See bench/README.md for the
gate policy. After an intentional change, regenerate a baseline from the
repo root with the invocation CI runs:

    build/bench/bench_engine_throughput scale=0.1 reps=2 out=bench/baseline/BENCH_engine.json
    build/bench/bench_scale_horizon base_s=120 rate=5 reps=3 out=bench/baseline/BENCH_scale.json
    build/bench/bench_shard_scaling scale=0.1 reps=5 out=bench/baseline/BENCH_shard.json
    build/bench/bench_grid figure=fig7 scale=0.1 out=bench/baseline/BENCH_fig7.json
    build/bench/bench_grid figure=fig8 out=bench/baseline/BENCH_session.json
    build/bench/bench_grid figure=fig9 out=bench/baseline/BENCH_cache.json

Usage: compare_bench.py BASELINE CURRENT [--max-regression 0.25]
"""

import argparse
import json
import sys

WALL_CLOCK_KEYS = ("wall_s", "events_per_sec")
IDENTITY_KEYS = ("bench", "figure")


def load(path):
    """The file's identity (its `bench` and `figure`) and its cells."""
    with open(path) as f:
        doc = json.load(f)
    # bench_engine_throughput cells carry their policy; the other benches run
    # one policy for the whole sweep and record it at the top level.
    default_policy = doc.get("policy", "")
    cells = {
        (c["cell"], c.get("policy", default_policy)): c for c in doc["cells"]
    }
    return {key: doc.get(key) for key in IDENTITY_KEYS}, cells


def main():
    # RawDescription keeps the module docstring, with the gate rules and the
    # baseline-regeneration recipes, readable in --help output.
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum tolerated fractional events/sec drop per cell",
    )
    args = parser.parse_args()

    base_id, baseline = load(args.baseline)
    cur_id, current = load(args.current)

    # One self-contained line per failure, naming the (cell, policy, key)
    # and both values, so a red CI log pinpoints it without the JSONs.
    failures = [
        f"{key}: baseline={base_id[key]!r} current={cur_id[key]!r}"
        for key in IDENTITY_KEYS
        if base_id[key] != cur_id[key]
    ]
    width = max(len(f"{cell}/{policy}") for cell, policy in baseline)
    print(f"{'cell':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}")
    for (cell, policy), base in sorted(baseline.items()):
        cur = current.get((cell, policy))
        where = f"cell={cell} policy={policy}"
        if cur is None:
            failures.append(f"{where} missing from the current run")
            continue
        for key, value in base.items():
            if key not in cur:
                failures.append(f"{where} key={key} missing from the current run")
            elif key not in WALL_CLOCK_KEYS and cur[key] != value:
                failures.append(
                    f"{where} key={key} baseline={value!r} current={cur[key]!r}"
                )

        name = f"{cell}/{policy}"
        base_eps = base.get("events_per_sec")
        cur_eps = cur.get("events_per_sec")
        if base_eps is None or cur_eps is None or base_eps <= 0:
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}")
            continue
        delta = (cur_eps - base_eps) / base_eps
        marker = ""
        if delta < -args.max_regression:
            failures.append(
                f"{where} key=events_per_sec baseline={base_eps:g} "
                f"current={cur_eps:g} delta={delta:+.1%} "
                f"(limit {-args.max_regression:+.1%})"
            )
            marker = "  << REGRESSION"
        print(
            f"{name:<{width}}  {base_eps:>12.0f}  {cur_eps:>12.0f}"
            f"  {delta:>+7.1%}{marker}"
        )

    if failures:
        print(f"\nFAIL: {len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"\nOK: every deterministic value matches the baseline and no cell "
        f"lost more than {args.max_regression:.0%} of its events/sec"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
