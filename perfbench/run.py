"""One benchmark run: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

The run generates the workload's inputs from the seed, then runs the
workload's operation over and over, one at a time, each in a fresh
process (perfbench/op.py), until S seconds have passed. Before each
operation it measures set-up time twice: a fresh interpreter importing
``bitextaug.cli``. Outputs are checked outside the timed windows: the
first operation's in full, every later one for byte-identity with the
first.

With ``--trace 0`` the last line of standard output reports every
end-to-end metric of BENCHMARK.json, as medians over the operations of
the run. With ``--trace 1`` operations alternate untraced and traced, and
the last line reports every per-layer metric (medians over the traced
operations). The tracing overhead, median traced minus median untraced
``wall_s``, is printed before it and kept in the record; it is not a
metric, because it is a small difference of two noisy medians and can be
negative. ``--out`` appends the full record, with the environment, to a
JSON-lines file that suite.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import ROOT, WORKLOADS, Workload, sha256

SPEC_PATH = ROOT / "BENCHMARK.json"
PROGRAM = ROOT / "src" / "bitextaug" / "cli.py"
ORACLE = ROOT / "tests" / "oracle.py"
OP = Path(__file__).resolve().with_name("op.py")
WORK_ROOT = ROOT / ".perfbench_work"
MIN_OPS = 2  # byte-identity across repeats needs at least two
SETUP_PER_OP = 2  # set-up samples taken before each operation, spread over the run
OP_TIMEOUT_S = 90


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing ``bitextaug.cli``.

    No timeout: a wait with one polls the child at up to 50 ms intervals,
    which would round this fraction of a second up to that grid.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bitextaug.cli"], env=env, check=True)
    return time.perf_counter() - start


def run_op(argv: list[str], trace: bool, result: Path, env: dict[str, str], cwd: Path) -> dict:
    """Run the operation once in a fresh process; its measurements, or an ``error``."""
    cmd = [sys.executable, str(OP), str(result), "1" if trace else "0", "--", *argv]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"operation timed out after {OP_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"operation process exited {proc.returncode}: {proc.stderr[-2000:]}"}
    measured = json.loads(result.read_text(encoding="utf-8"))
    if measured["exit_code"] != 0:
        measured["error"] = f"bitextaug exited {measured['exit_code']}: {proc.stderr[-2000:]}"
    return measured


def fingerprint(out: Path) -> dict[str, str]:
    """sha256 of every output file except the config snapshot, which names out_dir."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "resolved.cfg":
            digests[str(path.relative_to(out))] = sha256(path)
    return digests


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; never report an enclosing repository
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: Workload, args) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "items_per_op": workload.items,
        "item": workload.item,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def measure(workload: Workload, args, spec: dict, work: Path) -> dict:
    env = _env()
    data, outs = work / "data", work / "out"
    data.mkdir(parents=True)
    outs.mkdir()
    workload.prepare(data)

    setup_seconds(env)  # warm-up (file cache, bytecode where it is written); not counted
    setup: list[float] = []
    ops: list[dict] = []
    first: dict[str, str] | None = None
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < args.seconds:
        setup += [setup_seconds(env) for _ in range(SETUP_PER_OP)]
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        out = outs / f"op-{k}"
        out.mkdir()
        op = run_op(workload.argv(data, out), traced, work / f"op-{k}.json", env, work)
        op["traced"] = traced
        ops.append(op)
        if "error" in op:
            break
        digests = fingerprint(out)
        if first is None:
            first = digests
        else:
            if digests != first:
                op["error"] = "outputs differ from the first repeat of this run"
            shutil.rmtree(out)

    problems = [op["error"] for op in ops if "error" in op]
    if first is not None:
        found = workload.check(data, outs / "op-0")
        if found:  # every repeat wrote the same bytes, so every one is wrong
            for op in ops:
                op.setdefault("error", "output check failed")
            problems += found
    failed = sum("error" in op for op in ops)

    # timings of every operation that ran to the end, even one whose outputs are wrong
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    traced_ops = [op for op in ops if op["traced"] and "wall_s" in op]
    end_to_end = {}
    if plain:
        end_to_end = {
            "wall_s": statistics.median(op["wall_s"] for op in plain),
            "items_per_s": statistics.median(workload.items / op["wall_s"] for op in plain),
            "cpu_s": statistics.median(op["cpu_s"] for op in plain),
            "peak_rss_mib": statistics.median(op["peak_rss_mib"] for op in plain),
            "setup_s": statistics.median(setup),
        }
    per_layer = {}
    overhead = {}
    if plain and traced_ops:
        for name in traced_ops[0]["layers"]:
            per_layer[name] = statistics.median(op["layers"][name] for op in traced_ops)
        overhead_s = statistics.median(op["wall_s"] for op in traced_ops) - end_to_end["wall_s"]
        overhead = {"s": overhead_s, "share": overhead_s / end_to_end["wall_s"]}
    wanted = {m["name"] for m in spec["per_layer"]}
    if per_layer and set(per_layer) != wanted:
        raise RuntimeError(f"traced metrics {sorted(per_layer)} differ from BENCHMARK.json {sorted(wanted)}")

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        "problems": problems[:20],
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_overhead": overhead,
        "env": environment(workload, args),
    }


def print_record(record: dict, spec: dict) -> None:
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['attempted']} operations, {record['failed']} failed "
        f"(failed_ratio {record['failed_ratio']:g})"
    )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for section in ("end_to_end", "per_layer"):
        for name, value in record[section].items():
            print(f"  {name:28s} {value:14.6g} {units[name]}")
    if record["trace_overhead"]:
        overhead = record["trace_overhead"]
        print(f"  tracing overhead: {overhead['s']:+.3f} s ({overhead['share']:+.1%} of untraced wall_s)")
    print(json.dumps({"env": record["env"]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    missing = [p for p in (SPEC_PATH, PROGRAM, ORACLE) if not p.is_file()]
    if missing:
        print(f"not a bitextaug checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed)

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_ROOT))
    try:
        record = measure(workload, args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty: another run is using it
            WORK_ROOT.rmdir()

    print_record(record, spec)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {name: {"value": record[section][name], "unit": units[name]} for name in units if name in record[section]}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
