"""The benchmark's workloads: generated inputs, the CLI operation, output checks.

Each workload is one ``bitextaug`` CLI call on files generated from the
run's seed. ``check`` verifies one operation's outputs from the files
alone; the runner additionally requires every repeat of the operation
within a run to write byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import math
import shlex
import sys
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SEP = "<sep>"
MIN_CONCAT_LEN = 25  # the CLI default, which the workloads do not override
TOLERANCE = 1e-9


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_manifest(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def check_manifest(manifest: Path, expected: dict[str, int]) -> list[str]:
    """Pair counts as expected, and the recorded hashes match the written files."""
    entries = read_manifest(manifest)
    problems = [
        f"{manifest.name}: {key}={entries.get(key)}, expected {value}"
        for key, value in expected.items()
        if entries.get(key) != str(value)
    ]
    for side in ("source", "target"):
        path = manifest.with_name(entries.get(f"file.{side}", f"missing-{side}"))
        if not path.is_file() or sha256(path) != entries.get(f"sha256.{side}"):
            problems.append(f"{manifest.name}: sha256.{side} does not match {path.name}")
    return problems


class Workload:
    """One CLI operation on inputs generated from a seed."""

    name: str
    item: str  # what items_per_s counts
    items: int  # items per operation
    sizes: dict[str, int]

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, data: Path) -> None:
        """Write this workload's inputs under ``data``, a function of the seed alone."""
        raise NotImplementedError

    def argv(self, data: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, data: Path, out: Path) -> list[str]:
        """Problems found in one operation's outputs; empty when they are correct."""
        raise NotImplementedError


class MixConcat(Workload):
    name = "mix-concat"
    item = "mix pairs written"
    N = 125_000
    items = 2 * N
    sizes = {"pairs": N, "mix_pairs": 2 * N}

    def prepare(self, data):
        rng = np.random.default_rng(self.seed)
        gen.write_parallel(rng, gen.uniform_lengths(rng, self.N, 8, 30), data / "train.src", data / "train.tgt")

    def argv(self, data, out):
        return [
            "mix", "--source", str(data / "train.src"), "--target", str(data / "train.tgt"),
            "--recipe", "vanilla+concat", "--seed", str(self.seed), "--out-dir", str(out),
        ]

    def check(self, data, out):
        n = self.N
        manifest = out / "train.manifest"
        expected = {"pairs.total": 2 * n, "pairs.original": n, "pairs.concat": n, "pairs.with_separator": n}
        problems = check_manifest(manifest, expected)
        concat = 0
        with open(out / "train.src", encoding="utf-8") as fs, open(out / "train.tgt", encoding="utf-8") as ft:
            for lineno, (src, tgt) in enumerate(zip(fs, ft), start=1):
                src_tokens, tgt_tokens = src.split(), tgt.split()
                n_src, n_tgt = src_tokens.count(SEP), tgt_tokens.count(SEP)
                if not (n_src or n_tgt):
                    continue
                concat += 1
                if n_src != 1 or n_tgt != 1:
                    problems.append(f"line {lineno}: {n_src} and {n_tgt} separators, expected 1 per side")
                elif len(src_tokens) - 1 < MIN_CONCAT_LEN:
                    problems.append(f"line {lineno}: concat source shorter than {MIN_CONCAT_LEN}")
        if concat != n:
            problems.append(f"{concat} concatenated lines, expected {n}")
        return problems


class BleuLongTail(Workload):
    name = "bleu-long-tail"
    item = "sentences scored"
    N = 16_000
    items = N
    sizes = {"sentences": N}
    # the extended bucket spec, restated here so the check does not use the program's
    BOUNDS = (10, 20, 30, 40, 50, 60, 70, 100, 200)

    def prepare(self, data):
        rng = np.random.default_rng(self.seed)
        gen.write_scoring_set(
            rng, gen.long_tail_lengths(rng, self.N), data / "src.txt", data / "ref.txt", data / "hyp.txt"
        )

    def argv(self, data, out):
        return [
            "bleu", "--hyp", str(data / "hyp.txt"), "--ref", str(data / "ref.txt"),
            "--src", str(data / "src.txt"), "--buckets", "extended", "--out-csv", str(out / "report.csv"),
        ]

    def check(self, data, out):
        sys.path.insert(0, str(ROOT / "tests"))
        try:
            from oracle import oracle_bleu
        finally:
            sys.path.pop(0)

        def tokens(name):
            with open(data / name, encoding="utf-8") as f:
                return [line.split() for line in f]

        hyps, refs, srcs = tokens("hyp.txt"), tokens("ref.txt"), tokens("src.txt")
        members: dict[str, list[int]] = {}
        lo = 1
        for bound in self.BOUNDS:
            members[f"{lo}-{bound}"] = [i for i, s in enumerate(srcs) if lo <= len(s) <= bound]
            lo = bound + 1
        covered = [i for idx in members.values() for i in idx]
        expected = {"all": (len(covered), oracle_bleu([hyps[i] for i in covered], [refs[i] for i in covered]))}
        for label, idx in members.items():
            if not idx:
                return [f"bucket {label} is empty: the generator must fill every bucket"]
            expected[label] = (len(idx), oracle_bleu([hyps[i] for i in idx], [refs[i] for i in idx]))

        rows = {}
        for line in (out / "report.csv").read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#") and line != "bucket,count,score":
                label, count, score = line.split(",")
                rows[label] = (int(count), float(score) if score else None)
        if set(rows) != set(expected):
            return [f"report buckets {sorted(rows)} differ from {sorted(expected)}"]
        problems = []
        for label, (count, score) in expected.items():
            got_count, got_score = rows[label]
            if got_count != count or got_score is None or not math.isclose(got_score, score, rel_tol=0, abs_tol=TOLERANCE):
                problems.append(f"bucket {label}: {got_count} items, BLEU {got_score}; oracle {count}, {score}")
        return problems


class PipelineBtConcat(Workload):
    name = "pipeline-bt-concat"
    item = "base training pairs"
    N = 40_000
    TEST = 12_000  # enough hypotheses that each operation runs one gen-2 collection
    RUN_SEEDS = "1,2,3"
    items = N
    sizes = {"base_pairs": N, "train_file_pairs": N + N // 4, "mix_pairs": 4 * N, "test_pairs": TEST, "run_seeds": 3}

    def prepare(self, data):
        rng = np.random.default_rng(self.seed)
        train = gen.uniform_lengths(rng, self.N + self.N // 4, 8, 30)
        gen.write_parallel(rng, train, data / "train.src", data / "train.tgt")
        test = gen.uniform_lengths(rng, self.TEST, 2, 80)
        gen.write_scoring_set(rng, test, data / "test.src", data / "test.tgt")

    def argv(self, data, out):
        mock = f"{shlex.quote(sys.executable)} -m bitextaug.mocks identity {{IN}} {{OUT}}"
        return [
            "run", "--source", str(data / "train.src"), "--target", str(data / "train.tgt"),
            "--test-source", str(data / "test.src"), "--test-target", str(data / "test.tgt"),
            "--out-dir", str(out), "--recipe", "vanilla+bt+concat", "--base-size", str(self.N),
            "--sample-seed", str(self.seed), "--concat-seed", str(self.seed),
            "--run-seeds", self.RUN_SEEDS, "--forward-cmd", mock, "--backward-cmd", mock,
        ]

    def check(self, data, out):
        n = self.N
        expected = {"pairs.total": 4 * n, "pairs.original": n, "pairs.pseudo_bt": n,
                    "pairs.concat": 2 * n, "pairs.with_separator": 2 * n}
        problems = check_manifest(out / "mix" / "train.manifest", expected)
        wanted = ["report/averaged.csv", "report/bucket_table.md", "report/scores.svg", "report/metadata.txt"]
        for seed in self.RUN_SEEDS.split(","):
            wanted += [f"runs/run-{seed}/hyp.txt", f"runs/run-{seed}/report.csv"]
        problems += [f"missing output {name}" for name in wanted if not (out / name).is_file()]
        return problems


WORKLOADS = {w.name: w for w in (PipelineBtConcat, MixConcat, BleuLongTail)}
