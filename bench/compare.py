"""Paired comparison of two commits on the benchmark.

    python3 bench/compare.py BASE NEW [--workload W ...]

Exports both commits with ``git archive`` into ``.bench_out/compare/`` and
runs this checkout's ``bench/run.py`` against each tree's ``src/``, so both
sides are measured by identical benchmark code.  Each of 10 pairs runs
both sides back to back, alternating which side goes first; pair i uses
seed 1000 + i.  For every workload and end-to-end metric it reports each
side's median and quartiles and how many pairs NEW won (ties count for
neither side).  It reports a gain only when NEW wins at least 9 in 10 pairs
and the medians differ, in NEW's favour, by more than BASE's interquartile
range, with no larger share of failed operations; otherwise "unresolved".
It also says whether NEW's median is within the metric's bound of BASE's.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAIRS = 10
FIRST_SEED = 1000


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str) -> Path:
    """The tree of ``rev`` under .bench_out/compare/<sha>, extracted once."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = ROOT / ".bench_out" / "compare" / sha
    if not (tree / "src").is_dir():
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
            tar.extractall(tree, filter="data")
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--src", str(tree / "src")],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name[:10]} {workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(base: list[float], new: list[float], better: str, base_fail: float, new_fail: float) -> tuple:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    q1, _, q3 = statistics.quantiles(base, n=4)
    gain = statistics.median(new) - statistics.median(base)
    needed = math.ceil(0.9 * len(base))
    won = wins >= needed and sign * gain > q3 - q1 and new_fail <= base_fail
    return wins, "gain" if won else "unresolved"


def _summary(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="paired benchmark comparison of two commits")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: all)")
    args = parser.parse_args(argv)

    trees = {"base": export(args.base), "new": export(args.new)}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        runs = {"base": [], "new": []}
        for i in range(PAIRS):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                runs[side].append(run_once(trees[side], workload, FIRST_SEED + i, spec["run_seconds"]))
            print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
        fail = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                for side, rs in runs.items()}
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        rows = {}
        print(f"\n{workload}  (correct: {correct}; failed share base {fail['base']:.4f}, new {fail['new']:.4f})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            new = [r["metrics"][name]["value"] for r in runs["new"]]
            wins, result = verdict(base, new, metric["better"], fail["base"], fail["new"])
            change = statistics.median(new) / statistics.median(base) - 1
            worse = -change if metric["better"] == "higher" else change
            within = worse <= metric["bound"]
            rows[name] = {"base": base, "new": new, "wins": wins, "verdict": result,
                          "within_bound": within}
            print(f"  {name:14s} base {_summary(base):32s} new {_summary(new):32s} "
                  f"new wins {wins}/{PAIRS}  {result:10s} "
                  f"{'within' if within else 'OUTSIDE'} bound {metric['bound']}")
        report[workload] = {"correct": correct, "failed_share": fail, "metrics": rows}
    out = ROOT / ".bench_out" / f"compare-{trees['base'].name[:12]}-{trees['new'].name[:12]}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nwritten {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
