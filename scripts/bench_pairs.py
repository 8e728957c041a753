"""Run a paired benchmark series between two checkouts and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --pairs N --first-seed S --label L [--seconds 10] [--out-dir .]

PARENT_ROOT and CHANGE_ROOT are checkouts of the repository. Pair i runs
`bench/run.py --workload W --seed S+i --seconds SECONDS --trace 0` once for
each root, with BLAS pinned to one thread as BENCHMARK.json's command does.
Even pairs run the parent first and odd pairs the change first, so a drift of
the machine's speed over the series favours neither side.

Both sides run from one work path, a temporary directory made for the series
and removed after it. Before each run it is emptied and given that root's
`src/`, `bench/` and `BENCHMARK.json`, copied without `__pycache__` and with
fresh modification times, so no bytecode compiled for the other tree is
reused. The directory a program runs from can move its speed by itself
(Mytkowicz et al., "Producing Wrong Data Without Doing Anything Obviously
Wrong!", ASPLOS 2009); one path for both sides keeps that out of a pair.

The file written holds every run's result line, each side's median and
quartiles of every end-to-end metric, the pairs the change won on each (by
the metric's `better` direction in CHANGE_ROOT/BENCHMARK.json), each
metric's verdict and the failed operations of each side. A run that exits
non-zero or prints no result line is kept with its exit code and counts as a
failed run of its side.

Each run also records the minor page faults and system CPU seconds of its
whole process tree (`minor_faults`, `system_s`: RUSAGE_CHILDREN before and
after it), and, taken just before it, a two-process speedup (`speedup`): a
fixed pure-Python loop run twice in series, over the wall time of the same
loop run once in each of two forked processes. It reads about 2 when a second
CPU has time to spare and about 1 when it has none. The file and the output
give each side's medians over its completed runs. They are diagnostics: no
verdict reads them.

A verdict compares the two sides of one metric, with `bound` the metric's
relative bound in BENCHMARK.json and IQR the parent's interquartile range:

  regression  the change has more failed runs than the parent, or a larger
              share of its operations failed, or its median is worse than
              the parent's by more than `bound` times the parent's median;
  gain        the change is better in at least 9 of 10 of all pairs run (a
              tie, or a pair with a failed run, counts for neither side) and
              its median is better than the parent's by more than the IQR;
  unresolved  the IQR exceeds `bound` times the parent's median, and not
              every change run is better than every parent run;
  no change   anything else.

The first that holds is the verdict. A metric with no completed run on a
side has none.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
USAGE = {"minor_faults": "ru_minflt", "system_s": "ru_stime"}  # run field -> rusage field
DIAGNOSTICS = (*USAGE, "speedup")  # the run fields no verdict reads
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
COPIED = ("src", "bench", "BENCHMARK.json")  # what a run takes from its root
PROBE_ITERATIONS = 1_000_000  # about 40 ms of one CPU


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


def _spin() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return total


def speedup_probe() -> float:
    """The wall time of `_spin` run twice in series over that of `_spin` run
    once in each of two forked processes at once."""
    start = time.perf_counter()
    _spin()
    _spin()
    series = time.perf_counter() - start
    start = time.perf_counter()
    children = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            try:
                _spin()
            finally:
                os._exit(0)
        children.append(pid)
    for pid in children:
        os.waitpid(pid, 0)
    return series / (time.perf_counter() - start)


def _fill(work: Path, root: Path) -> None:
    """Empty `work` and copy into it what a run takes from `root`, with fresh
    modification times and without bytecode."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, work / name, copy_function=shutil.copyfile,
                            ignore=shutil.ignore_patterns("__pycache__"))
        elif (root / name).is_file():
            shutil.copyfile(root / name, work / name)


def _run(root: Path, work: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py invocation on `root`'s tree, copied into `work` and run
    from there: its result line, or its exit code, the page faults and system
    time of its process tree, and the speedup probe taken just before it."""
    _fill(work, root)
    speedup = speedup_probe()  # its children end before the usage below is read
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        cmd, cwd=work, env=dict(os.environ, **PINNED), stdout=subprocess.PIPE, text=True
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = {"exit_code": proc.returncode, "speedup": speedup,
           **{name: getattr(after, field) - getattr(before, field) for name, field in USAGE.items()}}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return run
    result = json.loads(lines[-1])
    return {
        **run,
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


def fails_more(parent: dict, change: dict) -> bool:
    """Whether the change side has more failed runs than the parent side, or
    a larger share of failed operations; each side as in `sides` of the file."""
    return change["failed_runs"] > parent["failed_runs"] or (
        change["failed_operations"] * parent["attempted_operations"]
        > parent["failed_operations"] * change["attempted_operations"]
    )


def verdict(parent: list[float], change: list[float], won: int, pairs: int,
            better: str, bound: float, *, failing: bool) -> str | None:
    """One metric's verdict from each side's completed runs, the pairs the
    change won of all `pairs` run, and `failing`, whether the change fails
    more (`fails_more`); see the module docstring."""
    if not parent or not change:
        return None
    sign = 1.0 if better == "higher" else -1.0
    p, c = _summary(parent), _summary(change)
    iqr, scale = p["q3"] - p["q1"], bound * abs(p["median"])
    gained = sign * (c["median"] - p["median"])  # positive when the change is better
    if failing or -gained > scale:
        return "regression"
    if 10 * won >= 9 * pairs and gained > iqr:
        return "gain"
    if iqr > scale and min(sign * v for v in change) <= max(sign * v for v in parent):
        return "unresolved"
    return "no change"


def main(argv=None) -> int:
    args = _parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        work = Path(tmp).resolve() / "tree"
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = _run(roots[side], work, args.workload, seed, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side, "position": position, **run})
                shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()}
                print(f"pair {pair} seed {seed} {side}: {shown or run}", file=sys.stderr)

    sides, values = {}, {}
    for side in SIDES:
        done = [r for r in runs if r["side"] == side and "metrics" in r]
        values[side] = {
            name: [r["metrics"][name] for r in done if name in r["metrics"]] for name in better
        }
        sides[side] = {
            "runs": sum(r["side"] == side for r in runs),
            "failed_runs": sum(r["side"] == side and "metrics" not in r for r in runs),
            "attempted_operations": sum(r["attempted"] for r in done),
            "failed_operations": sum(r["failed"] for r in done),
            "metrics": {name: _summary(v) for name, v in values[side].items()},
            **{name: _summary([r[name] for r in done if name in r]) for name in DIAGNOSTICS},
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

    failing = fails_more(sides["parent"], sides["change"])
    verdicts = {
        name: verdict(values["parent"][name], values["change"][name], wins[name]["won"],
                      args.pairs, direction, bound[name], failing=failing)
        for name, direction in better.items()
    }

    doc = {
        "label": args.label,
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
        "seconds": args.seconds,
        "runs": runs,
        "sides": sides,
        "wins": wins,
        "verdicts": verdicts,
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
            f"{wins[name]['won']}/{args.pairs} pairs: {verdicts[name]}"
        )
    for side in SIDES:
        s = sides[side]
        print(f"{side}: {s['failed_runs']} failed runs, "
              f"{s['failed_operations']}/{s['attempted_operations']} failed operations")
        if s["minor_faults"]["median"] is not None:
            print(f"{side}: median {s['minor_faults']['median']:.0f} minor faults and "
                  f"{s['system_s']['median']:.3f} s system time per run")
        if s["speedup"]["median"] is not None:
            print(f"{side}: median two-process speedup {s['speedup']['median']:.2f} before a run")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
