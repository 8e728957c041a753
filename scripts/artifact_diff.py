"""Check that two glaug source trees behave byte-identically on the CLI.

    python3 scripts/artifact_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the `glaug` package (for a
checkout, its `src`). Each command below runs once per tree, with that tree
first on PYTHONPATH and BLAS pinned to one thread, in a work directory of its
own under a temporary directory, so relative paths in output and manifests
read the same on both sides. The commands cover a `gen-synth` data set, every
experiment command, the `rerun` of each, `invariant-rate --from-run`,
`gradcheck`, and `run` with `--negative-pairs`, `--dist-scope dataset`,
`--parallel-folds 2`, and each feature builder by name (`--features
degree_one_hot:4`, `constant_one` and `one_hot_node_labels`). An
`ablate-strategy --parallel-folds 2` runs a whole study, three variants of
ten folds, in one pool of forked fold workers, and a `sweep-eta --values
0.5,1.0 --parallel-folds 3` runs two variants whose folds share its three
workers, so one pool holds folds of both at once. One more `run` and
one `ablate-strategy` keep the default width (hidden 128), where stacked
products take BLAS's gemm path and single rows its gemv path; the narrow runs
cannot show a difference between the two, and the ablation runs all three
selection strategies at that width. Another `run` draws one candidate (K = 1)
in a representation of width 1, so every direction is +1 or -1: the smallest
block of directions.
Two more `run`s and their `rerun`s read data sets written by hand in the
shape of a downloaded one: CRLF line ends, blank lines, a self-loop and a
repeated ordered pair, so the parser's line-end handling and its warnings on
stderr are compared too. The second has no node-label file, so its run takes
the default `degree_one_hot:10` features; every other data set here has node
labels. A `run` and its `rerun` read a second `gen-synth` data set, drawn
at density 0 in every class, so no graph has an edge and its edge file is one
blank line. Three last `run`s read HAND's files with an edited edge file: one
with an edge to an unknown node and one with an edge across two graphs, which
must both exit 1 with the same `error:` line, and one with a `+` before every
value, which the parser's per-line decoder reads. A third `gen-synth` data
set of 3,000 graphs has an edge file of about 1.7 MB, several of the
parser's 256 KiB chunks, so it is decoded two chunks at a time on a host of
two or more CPUs; a `run --parallel-folds 2` reads it, and a `run` reads
its copy with a malformed line in a late chunk of the edge file, which must
exit 1. That chunk is the first of two decoded side by side, the one the
helper thread tries, so the error comes out of a pair. Another lean `run
--parallel-folds 2` reads a copy of its files with every line feed a lone
carriage return, which the parser cuts into chunks at those line ends too
and reads with its per-line decoder. Five commands, those of INPUT_ERRORS,
are input errors: `run` with a `--k` or a `--hidden` past the intp byte
bound, `invariant-rate --from-run` of a study's metrics, `run` with an
`--out` that is a file and `run` of a directory that holds no data set of
its own base name. Each exits 1, so the `error:` lines of input errors are
compared byte for byte. That makes 54 commands.

Every command runs with `DeprecationWarning` and `ResourceWarning` raised as
errors (`PYTHONWARNINGS`), as the test suite runs, so a warning in a real
process is a crash. After each command the exit code, stdout, stderr and
every file the command wrote are compared. A command on the new tree that
exits 2 (an internal error) or prints `Traceback (most recent call last)`
fails the check even when both trees agree, since no command here should
crash. The script stops at the first failure or difference and exits 1; it
exits 0 when all commands agree, and 2 when a tree holds no `glaug`.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = "data/SYNTH"
EDGELESS = "data/EDGELESS"
HAND = "data/HAND"
BARE = "data/BARE"  # HAND's graphs without a node-label file
LARGE = "data/LARGE"  # an edge file of several chunks
LATE = "data/LATE"  # LARGE's files, with a malformed line in a late chunk of its edge file
LONE_CR = "data/LONECR"  # LARGE's files, with every \n a lone \r
CHUNK_BYTES = 1 << 18  # the parser's chunk size, glaug.data.CHUNK_BYTES
# data sets of HAND's files with an edited A file: data set -> the edit
EDITED = {
    "data/UNKNOWN": lambda a: a.replace(b"2, 2\r\n", b"2, 99\r\n"),  # node 99 of 48
    "data/CROSS": lambda a: a.replace(b"2, 2\r\n", b"2, 5\r\n"),  # graphs 1 and 2
    "data/SIGNED": lambda a: re.sub(rb"\d+", rb"+\g<0>", a),
}
TRACEBACK = b"Traceback (most recent call last)"
# (label, arguments) of commands that exit 1 on an input error
INPUT_ERRORS = [
    ("k-past-intp", ["run", DATA, "--k", str(10**18), "--out", "runs/k-past-intp"]),
    ("hidden-past-intp",
     ["run", DATA, "--hidden", str(2**63 - 1), "--out", "runs/hidden-past-intp"]),
    ("from-run-of-a-study", ["invariant-rate", "--from-run", "runs/sweep-eta/metrics.json"]),
    ("out-is-a-file", ["run", DATA, "--out", "runs/run/metrics.json"]),
    ("no-data-set-by-that-name", ["run", "data", "--out", "runs/no-data-set"]),
]
TINY = [
    "--epochs", "2", "--k", "3", "--hidden", "8", "--proj-dim", "4", "--depth", "2",
    "--batch-size", "8", "--lr", "1e-2",
]
# (label, arguments); each writes to runs/<label>, and its rerun to reruns/<label>
EXPERIMENTS = [
    ("run", ["run", DATA, *TINY]),
    ("sweep-eta", ["sweep-eta", DATA, *TINY, "--values", "0.0,1.0"]),
    ("ablate-strategy", ["ablate-strategy", DATA, *TINY]),
    ("ablate-negatives", ["ablate-negatives", DATA, *TINY]),
    ("invariant-rate", ["invariant-rate", DATA, *TINY, "--ratios", "0.4,0.8"]),
    ("negative-pairs", ["run", DATA, *TINY, "--negative-pairs", "--strategy", "random"]),
    ("dist-scope", ["run", DATA, *TINY, "--dist-scope", "dataset", "--strategy", "easiest"]),
    ("parallel-folds", ["run", DATA, *TINY, "--parallel-folds", "2", "--label-ratio", "0.3"]),
    ("parallel-folds-strategies", ["ablate-strategy", DATA, *TINY, "--parallel-folds", "2"]),
    ("parallel-folds-sweep",
     ["sweep-eta", DATA, *TINY, "--values", "0.5,1.0", "--parallel-folds", "3"]),
    ("features", ["run", DATA, *TINY, "--features", "degree_one_hot:4"]),
    ("features-constant", ["run", DATA, *TINY, "--features", "constant_one"]),
    ("features-labels", ["run", DATA, *TINY, "--features", "one_hot_node_labels"]),
    ("default-width", ["run", DATA, "--epochs", "1", "--k", "3"]),
    ("default-width-strategies", ["ablate-strategy", DATA, "--epochs", "1", "--k", "3"]),
    ("k1-dim1", ["run", DATA, "--epochs", "1", "--k", "1", "--hidden", "1", "--proj-dim", "1",
                 "--depth", "1"]),
    ("hand-written", ["run", HAND, *TINY]),
    ("hand-written-no-node-labels", ["run", BARE, *TINY]),
    ("edgeless", ["run", EDGELESS, *TINY]),
]


def write_hand_dataset(directory: Path, node_labels: bool = True) -> None:
    """Twelve small graphs in TUDataset files with CRLF line ends and blank
    lines, named after `directory`; the edge file lists one self-loop and
    repeats one ordered pair. `node_labels` says whether a node-label file is
    written."""
    graphs = [3 + i % 3 for i in range(12)]  # node counts
    edges, indicator, labels, base = [], [], [], 0
    for gid, n in enumerate(graphs, start=1):
        pairs = [(j, j + 1) for j in range(n - 1)] + ([(0, n - 1)] if gid % 2 else [])
        for u, v in pairs:
            edges += [f"{base + u + 1}, {base + v + 1}", f"{base + v + 1}, {base + u + 1}"]
        indicator += [str(gid)] * n
        labels += [str(j % 3 + 1) for j in range(n)]
        base += n
    edges[3:3] = ["2, 2", "", edges[0]]  # a self-loop, a blank line, a repeated pair
    files = {
        "A": edges,
        "graph_indicator": indicator[:5] + ["  "] + indicator[5:],
        "graph_labels": [str(i % 2) for i in range(len(graphs))],
        "node_labels": labels,
    }
    if not node_labels:
        del files["node_labels"]
    directory.mkdir(parents=True)
    for suffix, lines in files.items():
        text = "\r\n".join(lines) + "\r\n\r\n"
        (directory / f"{directory.name}_{suffix}.txt").write_bytes(text.encode("ascii"))


def write_large_copies(work: Path) -> None:
    """LATE and LONE_CR: the files gen-synth wrote to LARGE under `work`,
    renamed. In LATE one line of the edge file is not an integer record. The
    parser takes chunks in pairs, (0, 1), (2, 3) and so on, and the line is
    in the middle of the last even-numbered chunk that has a partner, the one
    a helper thread decodes while the calling thread decodes the next. In
    LONE_CR every line ends in a lone \\r."""
    for data in (LATE, LONE_CR):
        (work / data).mkdir()
    for path in (work / LARGE).iterdir():
        content = path.read_bytes()
        copy = path.name.replace("LARGE", Path(LONE_CR).name)
        (work / LONE_CR / copy).write_bytes(content.replace(b"\n", b"\r"))
        if path.name.endswith("_A.txt"):
            chunks = -(-len(content) // CHUNK_BYTES)
            late = (chunks - 2) // 2 * 2  # 4 of 7 chunks
            start = content.index(b"\n", late * CHUNK_BYTES + CHUNK_BYTES // 2) + 1
            end = content.index(b"\n", start) + 1
            content = content[:start] + b"1, x\n" + content[end:]
        (work / LATE / path.name.replace("LARGE", "LATE")).write_bytes(content)


def commands() -> list[tuple[str, list[str], str | None]]:
    """(label, arguments, directory the command writes or None), in run order."""
    synth = ["gen-synth", "--graphs", "30", "--seed", "3"]
    cmds = [
        ("gen-synth", [*synth, "--name", "SYNTH", "--out", DATA], DATA),
        ("gen-synth edgeless",
         [*synth, "--densities", "0,0", "--name", "EDGELESS", "--out", EDGELESS], EDGELESS),
        ("gen-synth large",
         ["gen-synth", "--graphs", "3000", "--seed", "4", "--name", "LARGE", "--out", LARGE], LARGE),
    ]
    for label, args in EXPERIMENTS:
        cmds.append((label, [*args, "--out", f"runs/{label}"], f"runs/{label}"))
    for label, _ in EXPERIMENTS:
        out = f"reruns/{label}"
        cmds.append((f"rerun {label}", ["rerun", f"runs/{label}/manifest.json", "--out", out], out))
    cmds.append((
        "invariant-rate --from-run",
        ["invariant-rate", "--from-run", "runs/run/metrics.json"],
        None,
    ))
    cmds.append(("gradcheck", ["gradcheck"], None))
    for label, args in INPUT_ERRORS:
        cmds.append((label, args, args[args.index("--out") + 1] if "--out" in args else None))
    for data in EDITED:
        label = f"edited-{Path(data).name}"
        cmds.append((label, ["run", data, *TINY, "--out", f"runs/{label}"], f"runs/{label}"))
    lean = ["--epochs", "1", "--k", "1", "--hidden", "1", "--proj-dim", "1", "--depth", "1",
            "--batch-size", "64"]
    cmds.append(("large", ["run", LARGE, *lean, "--parallel-folds", "2", "--out", "runs/large"],
                 "runs/large"))
    cmds.append(("late-malformed-line", ["run", LATE, "--out", "runs/late"], "runs/late"))
    cmds.append(("large-lone-cr",
                 ["run", LONE_CR, *lean, "--parallel-folds", "2", "--out", "runs/large-lone-cr"],
                 "runs/large-lone-cr"))
    return cmds


def environment(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GLAUG_DATA_DIR", None)  # the CLI also looks data sets up there
    env["PYTHONPATH"] = str(src)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONWARNINGS"] = "error::DeprecationWarning,error::ResourceWarning"
    return env


def files(root: Path) -> dict[str, bytes]:
    """Relative path -> contents of every file under `root`."""
    if not root.is_dir():
        return {}
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run(src: Path, workdir: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "glaug.cli", *args],
        cwd=workdir, env=environment(src), capture_output=True,
    )


def first_difference(old: dict[str, bytes], new: dict[str, bytes]) -> str | None:
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            return name
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    ns = parser.parse_args(argv)
    sides = {"old": ns.old_src.resolve(), "new": ns.new_src.resolve()}
    for name, src in sides.items():
        if not (src / "glaug" / "__init__.py").is_file():
            print(f"{name}: no glaug package under {src}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        work = {name: Path(tmp) / name for name in sides}
        for name, src in sides.items():
            work[name].mkdir()
            found = subprocess.run(
                [sys.executable, "-c", "import glaug; print(glaug.__file__)"],
                env=environment(src), capture_output=True, text=True,
            ).stdout.strip()
            if not found.startswith(str(src) + os.sep):
                print(f"{name}: glaug resolves to {found or 'nothing'}, not {src}", file=sys.stderr)
                return 2

        for name in sides:
            write_hand_dataset(work[name] / HAND)
            write_hand_dataset(work[name] / BARE, node_labels=False)
            for data, edit in EDITED.items():
                write_hand_dataset(work[name] / data)
                a = work[name] / data / f"{Path(data).name}_A.txt"
                a.write_bytes(edit(a.read_bytes()))
        cmds = commands()
        for label, args, out in cmds:
            got = {name: run(src, work[name], args) for name, src in sides.items()}
            old, new = got["old"], got["new"]
            if new.returncode == 2 or TRACEBACK in new.stdout + new.stderr:
                print(f"CRASH {label}: the new tree exits {new.returncode}", file=sys.stderr)
                print(f"--- new stderr:\n{new.stderr!r}", file=sys.stderr)
                return 1
            for what in ("returncode", "stdout", "stderr"):
                if getattr(old, what) != getattr(new, what):
                    print(f"DIFF {label}: {what} differs", file=sys.stderr)
                    for name, proc in got.items():
                        print(f"--- {name} {what}:\n{getattr(proc, what)!r}", file=sys.stderr)
                    return 1
            if out is not None:
                name = first_difference(files(work["old"] / out), files(work["new"] / out))
                if name is not None:
                    print(f"DIFF {label}: {out}/{name} differs", file=sys.stderr)
                    return 1
            print(f"same: {label} (exit {old.returncode})")
            if out == LARGE:  # LATE and LONE_CR are made from what each tree's gen-synth wrote
                for name in sides:
                    write_large_copies(work[name])
    print(f"all {len(cmds)} commands identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
