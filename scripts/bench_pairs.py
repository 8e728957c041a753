"""Run a paired benchmark series between two checkouts and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --pairs N --first-seed S --label L [--seconds 10] [--out-dir .]

PARENT_ROOT and CHANGE_ROOT are checkouts of the repository. Pair i runs
`bench/run.py --workload W --seed S+i --seconds SECONDS --trace 0` once in
each root, from that root, with BLAS pinned to one thread as BENCHMARK.json's
command does. Even pairs run the parent first and odd pairs the change first,
so a drift of the machine's speed over the series favours neither side.

The file written holds every run's result line, each side's median and
quartiles of every end-to-end metric, the pairs the change won on each (by
the metric's `better` direction in CHANGE_ROOT/BENCHMARK.json) and the failed
operations of each side. A run that exits non-zero or prints no result line
is kept with its exit code and counts as a failed run of its side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for root in (args.parent_root, args.change_root):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    return args


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py invocation in `root`: its result line, or its exit code."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=dict(os.environ, **PINNED), stdout=subprocess.PIPE, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode}
    result = json.loads(lines[-1])
    return {
        "exit_code": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    args = _parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = _run(roots[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, "position": position, **run})
            shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()}
            print(f"pair {pair} seed {seed} {side}: {shown or run}", file=sys.stderr)

    def completed(side):
        return [r for r in runs if r["side"] == side and "metrics" in r]

    sides = {}
    for side in SIDES:
        done = completed(side)
        sides[side] = {
            "runs": sum(r["side"] == side for r in runs),
            "failed_runs": sum(r["side"] == side and "metrics" not in r for r in runs),
            "attempted_operations": sum(r["attempted"] for r in done),
            "failed_operations": sum(r["failed"] for r in done),
            "metrics": {
                name: _summary([r["metrics"][name] for r in done if name in r["metrics"]])
                for name in better
            },
        }

    wins = {}
    for name, direction in better.items():
        won = pairs = 0
        for pair in range(args.pairs):
            got = {r["side"]: r["metrics"].get(name) for r in runs
                   if r["pair"] == pair and "metrics" in r}
            if got.get("parent") is None or got.get("change") is None:
                continue
            pairs += 1
            diff = got["change"] - got["parent"]
            won += diff > 0 if direction == "higher" else diff < 0
        wins[name] = {"won": won, "pairs": pairs}

    doc = {
        "label": args.label,
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
        "seconds": args.seconds,
        "runs": runs,
        "sides": sides,
        "wins": wins,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for name in better:
        p, c = sides["parent"]["metrics"][name], sides["change"]["metrics"][name]
        if p["median"] is None or c["median"] is None:
            print(f"{name}: no completed pair")
            continue
        print(
            f"{name}: parent {p['median']:.4g} [{p['q1']:.4g}-{p['q3']:.4g}] -> change "
            f"{c['median']:.4g} [{c['q1']:.4g}-{c['q3']:.4g}], change better in "
            f"{wins[name]['won']}/{wins[name]['pairs']} pairs"
        )
    for side in SIDES:
        s = sides[side]
        print(f"{side}: {s['failed_runs']} failed runs, "
              f"{s['failed_operations']}/{s['attempted_operations']} failed operations")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
