"""Run the benchmark over many seeds, summarize a result set, compare two.

    python3 perfbench/suite.py run --out A.jsonl [--runs 10] [--first-seed 1]
                                   [--workloads W,...] [--trace]
    python3 perfbench/suite.py ab BEFORE_DIR AFTER_DIR --out-dir DIR [--runs 10] ...
    python3 perfbench/suite.py show A.jsonl
    python3 perfbench/suite.py compare BEFORE.jsonl AFTER.jsonl

``run`` calls run.py once per workload and seed (seeds first-seed ..
first-seed + runs - 1), each run measuring BENCHMARK.json's
``run_seconds``, appends each record to the output file and then shows
it. ``ab`` does the same for two checkouts, alternating which one
runs first on each seed, writes before.jsonl and after.jsonl to DIR and
then compares them. ``show`` prints, per workload and end-to-end metric,
the median and quartiles over runs, the spread (interquartile distance
over median) and the metric's bound; traced records add the per-layer
medians and the tracing overhead. ``compare`` puts two result sets side
by side and marks each workload x end-to-end metric: ``unresolved`` when
either side's spread is wider than the bound, unless every second run
beats every first run; ``worse`` when the second
median is worse by more than the bound; ``better`` when the medians
differ by more than the first set's spread and the second set wins at
least 9 in 10 of the runs paired by seed; otherwise ``same``. It refuses
two sets whose workload sizes or run lengths differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def series(records: list[dict], workload: str, section: str, metric: str) -> list[float]:
    return [r[section][metric] for r in records if r["workload"] == workload and metric in r[section]]


def by_seed(records: list[dict], workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["end_to_end"][metric] for r in records
            if r["workload"] == workload and metric in r["end_to_end"]}


def show(records: list[dict]) -> None:
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        sizes = runs[0]["env"]["sizes"]
        print(f"{workload}  {len(runs)} runs, seeds {sorted(r['seed'] for r in runs)}, sizes {sizes}")
        print(f"  {'failed_ratio':24s} {failed / attempted:12.6g} ratio   ({failed} of {attempted} operations)")
        for name, m in E2E.items():
            values = series(runs, workload, "end_to_end", name)
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            s = spread(values)
            flag = "" if s <= m["bound"] / 3 else ("  spread above bound/3" if s <= m["bound"] else "  SPREAD ABOVE BOUND")
            print(
                f"  {name:24s} {median:12.6g} {m['unit']:6s} q1 {q1:<10.6g} q3 {q3:<10.6g} "
                f"spread {s:6.2%} bound {m['bound']:.0%}{flag}"
            )
        for m in SPEC["per_layer"]:
            values = series(runs, workload, "per_layer", m["name"])
            if values:
                q1, median, q3 = quartiles(values)
                print(f"  {m['name']:28s} {median:12.6g} {m['unit']:6s} q1 {q1:<10.6g} q3 {q3:<10.6g}")
        overheads = [r["trace_overhead"]["share"] for r in runs if r.get("trace_overhead")]
        if overheads:
            print(f"  tracing overhead: median {statistics.median(overheads):+.1%} of untraced wall_s")


PAIR_WINS = 0.9  # share of seed-paired runs the change must win to count as better


def verdict(before: dict[int, float], after: dict[int, float], metric: dict) -> tuple[float, str, str]:
    """Relative worsening of the median (negative is a gain), the pair wins and the mark."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = statistics.median(before.values())
    worse_by = sign * (statistics.median(after.values()) - base) / base
    seeds = before.keys() & after.keys()
    wins = sum(sign * after[k] < sign * before[k] for k in seeds)
    pairs = f"{wins}/{len(seeds)}"
    if max(spread(list(before.values())), spread(list(after.values()))) > metric["bound"]:
        beats_all = max(sign * a for a in after.values()) < min(sign * b for b in before.values())
        return worse_by, pairs, "better" if beats_all else "unresolved"
    if worse_by > metric["bound"]:
        return worse_by, pairs, "worse"
    if -worse_by > spread(list(before.values())) and seeds and wins >= PAIR_WINS * len(seeds):
        return worse_by, pairs, "better"
    return worse_by, pairs, "same"


def mismatch(before: list[dict], after: list[dict], workload: str) -> str | None:
    """Why two sets of one workload cannot be compared, or None."""
    settings = [
        {(json.dumps(r["env"]["sizes"], sort_keys=True), r["env"]["seconds"]) for r in side if r["workload"] == workload}
        for side in (before, after)
    ]
    if len(settings[0] | settings[1]) > 1:
        return f"sizes or run seconds differ: {sorted(settings[0])} vs {sorted(settings[1])}"
    return None


def compare(before: list[dict], after: list[dict]) -> None:
    print(f"{'workload':20s} {'metric':14s} {'before median [q1, q3]':36s} {'after median [q1, q3]':36s} change  wins  mark")
    for workload in WORKLOADS:
        problem = mismatch(before, after, workload)
        if problem:
            print(f"{workload:20s} not compared: {problem}")
            continue
        for name, m in E2E.items():
            a = by_seed(before, workload, name)
            b = by_seed(after, workload, name)
            if not a or not b:
                continue
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(list(values.values()))
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            worse_by, pairs, mark = verdict(a, b, m)
            print(f"{workload:20s} {name:14s} {cells[0]:36s} {cells[1]:36s} {worse_by:+6.1%} {pairs:>5s}  {mark}")
        for name in (m["name"] for m in SPEC["per_layer"]):
            a = series(before, workload, "per_layer", name)
            b = series(after, workload, "per_layer", name)
            if a and b:
                print(f"{workload:20s} {name:28s} {statistics.median(a):12.6g} -> {statistics.median(b):12.6g}")


def run_one(checkout: Path, workload: str, seed: int, trace: bool, out: Path) -> None:
    """One run.py run in ``checkout``, its record appended to ``out``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "1" if trace else "0", "--out", str(out.resolve()),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=300)
    status = proc.stdout.strip().splitlines()[-1] if proc.returncode == 0 else proc.stderr[-500:]
    print(f"{checkout.name} {workload} seed {seed}: {status[:160]}", flush=True)


def run(args) -> None:
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run_one(HERE.parent, workload, seed, args.trace, args.out)
    show(load(args.out))


def ab(args) -> None:
    """Alternate two checkouts seed by seed, so drift in machine speed hits both alike."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    outs = {"before": args.out_dir / "before.jsonl", "after": args.out_dir / "after.jsonl"}
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            order = ("before", "after") if seed % 2 == 0 else ("after", "before")
            for side in order:
                run_one(getattr(args, side).resolve(), workload, seed, False, outs[side])
    compare(load(outs["before"]), load(outs["after"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--runs", type=int, default=10)
    runs.add_argument("--first-seed", type=int, default=1)
    runs.add_argument("--workloads", type=lambda text: text.split(","), default=WORKLOADS,
                      help="comma-separated; default all")
    p = sub.add_parser("run", parents=[runs])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("ab", parents=[runs])
    p.add_argument("before", type=Path, help="checkout of the parent commit")
    p.add_argument("after", type=Path, help="checkout of the change")
    p.add_argument("--out-dir", type=Path, required=True)
    p = sub.add_parser("show")
    p.add_argument("results", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        run(args)
    elif args.command == "ab":
        ab(args)
    elif args.command == "show":
        show(load(args.results))
    else:
        compare(load(args.before), load(args.after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
