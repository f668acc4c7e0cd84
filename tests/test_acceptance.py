"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import functools
import random
import time
from pathlib import Path

import pytest

from bitextaug.augment import AugmentConfig, concat_augment
from bitextaug.buckets import EXTENDED_BUCKETS, PAIRWISE_BUCKETS, STANDARD_BUCKETS
from bitextaug.corpus import Corpus, Origin
from bitextaug.metrics import (
    BleuReport,
    BucketScore,
    Judgment,
    bucketed_bleu,
    corpus_bleu,
    diff_by_bucket,
    report_from_csv,
    tally_judgments,
)
from bitextaug.mix import MixRecipe, build_mix
from bitextaug.pipeline import PipelineConfig, cmd_run
from bitextaug.translate import Direction, back_translate, mock_spec, self_train

from conftest import make_corpus, mock_cmd, write_pair_files
from oracle import oracle_bleu


def criterion(number, description, budget_seconds):
    """Time the criterion, enforce its runtime budget, print one status line."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] {description}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
            )
            print(f"[criterion {number:2d}] {description}: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "corpus BLEU matches brute-force oracle within 1e-9", 1.0)
def test_01_bleu_oracle_equivalence():
    rng = random.Random(2024)
    vocab = [f"w{i}" for i in range(35)]
    fixtures = []

    # perfect match
    lines = [" ".join(rng.choice(vocab) for _ in range(rng.randint(4, 15))) for _ in range(6)]
    fixtures.append((lines, lines))
    # clipping with repeated hypothesis tokens, zero higher-order matches
    fixtures.append((["the the the the the the the"], ["the cat is on the mat"]))
    # brevity penalty < 1 with all-matching prefixes
    fixtures.append((["a b c d e", "g h i j k"], ["a b c d e f", "g h i j k l"]))
    # degenerate one-token corpus
    fixtures.append((["solo"], ["solo"]))
    # disjoint vocabularies
    fixtures.append((["p q r s"], ["x y z w"]))
    # long hypothesis, short reference (BP = 1)
    fixtures.append(([" ".join(vocab[:18])], [" ".join(vocab[:6])]))
    # half-matching with duplicates from a tiny vocabulary (clipping stress)
    for seed in (1, 2, 3):
        rng.seed(seed)
        tiny = ["a", "b", "c"]
        refs = [" ".join(rng.choice(tiny) for _ in range(rng.randint(1, 12))) for _ in range(20)]
        hyps = [" ".join(rng.choice(tiny) for _ in range(rng.randint(1, 12))) for _ in range(20)]
        fixtures.append((hyps, refs))
    # near-identical corpora with one substitution per sentence
    for seed in (4, 5, 6):
        rng.seed(seed)
        refs = [" ".join(rng.choice(vocab) for _ in range(rng.randint(5, 20))) for _ in range(15)]
        hyps = []
        for r in refs:
            toks = r.split()
            toks[rng.randrange(len(toks))] = rng.choice(vocab)
            hyps.append(" ".join(toks))
        fixtures.append((hyps, refs))

    assert len(fixtures) >= 10
    for i, (hyps, refs) in enumerate(fixtures):
        assert len(hyps) <= 20
        got = corpus_bleu(hyps, refs).overall
        want = oracle_bleu([h.split() for h in hyps], [r.split() for r in refs])
        assert abs(got - want) < 1e-9, f"fixture {i}: {got} vs oracle {want}"
    # frozen hand-checked anchors
    assert corpus_bleu(fixtures[0][0], fixtures[0][1]).overall == 100.0
    assert corpus_bleu(["the the the the the the the"], ["the cat is on the mat"]).overall == 0.0
    assert corpus_bleu(
        ["a b c d e", "g h i j k"], ["a b c d e f", "g h i j k l"]
    ).overall == pytest.approx(81.87307530779819, abs=1e-9)


@criterion(2, "BLEU(h, h) = 100.0 exactly on 100 randomized corpora", 1.0)
def test_02_bleu_identity():
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(60)]
    for _ in range(100):
        n = rng.randint(1, 25)
        lines = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 30))) for _ in range(n)
        ]
        assert corpus_bleu(lines, lines).overall == 100.0


@criterion(3, "concatenation invariants over >= 1000 generated cases", 10.0)
def test_03_concat_invariants():
    rng = random.Random(55)
    total_cases = 0
    for scenario in range(15):
        pool = make_corpus(
            rng.randint(10, 150),
            seed=1000 + scenario,
            min_len=rng.randint(3, 10),
            max_len=rng.randint(12, 30),
        )
        min_len = rng.choice([0, 10, 20, 25])
        target = rng.randint(50, 150)
        cfg = AugmentConfig(seed=scenario, target_count=target, min_concat_len=min_len)
        out = concat_augment(pool, cfg)
        rerun = concat_augment(pool, cfg)
        assert out == rerun, f"scenario {scenario}: rerun not bit-identical"
        assert len(out) == target
        by_source = {p.source: p.target for p in pool}
        for p in out:
            src_toks = p.source.split()
            tgt_toks = p.target.split()
            assert src_toks.count("<sep>") == 1
            assert tgt_toks.count("<sep>") == 1
            s_first, s_second = p.source.split(" <sep> ")
            t_first, t_second = p.target.split(" <sep> ")
            assert by_source[s_first] == t_first, "first halves misaligned"
            assert by_source[s_second] == t_second, "second halves misaligned"
            assert len(src_toks) - 1 >= min_len
            total_cases += 1
    assert total_cases >= 1000, total_cases


@criterion(4, "mix size law: 2N for single augmentations, 4N for the full mix", 5.0)
def test_04_mix_size_law():
    translators = {
        Direction.FORWARD: mock_spec("identity", Direction.FORWARD),
        Direction.BACKWARD: mock_spec("identity", Direction.BACKWARD),
    }
    for n in (10, 100, 1000):
        original = make_corpus(n, seed=n, min_len=13, max_len=20)
        augment = AugmentConfig(seed=1, min_concat_len=25)
        sizes = {}
        for name in ("vanilla+concat", "vanilla+st", "vanilla+bt", "vanilla+bt+concat"):
            mixed = build_mix(
                MixRecipe(name, base_size=n, seed=5),
                original,
                translators=translators,
                augment=augment,
            )
            sizes[name] = len(mixed)
        assert sizes["vanilla+concat"] == 2 * n
        assert sizes["vanilla+st"] == 2 * n
        assert sizes["vanilla+bt"] == 2 * n
        assert sizes["vanilla+bt+concat"] == 4 * n


@criterion(5, "back-translation and self-training preserve their fixed side", 2.0)
def test_05_bt_st_side_preservation():
    corpus = make_corpus(1000, seed=77, min_len=4, max_len=25)
    bt = back_translate(corpus, mock_spec("reverse", Direction.BACKWARD))
    assert len(bt) == len(corpus)
    for orig, new in zip(corpus, bt):
        assert new.target == orig.target  # byte-identical target
        assert new.origin is Origin.PSEUDO_BT
    st = self_train(corpus, mock_spec("reverse", Direction.FORWARD))
    assert len(st) == len(corpus)
    for orig, new in zip(corpus, st):
        assert new.source == orig.source  # byte-identical source
        assert new.origin is Origin.PSEUDO_ST


EXPECTED_BUCKET_COUNTS = {
    "1-10": 73,
    "11-20": 529,
    "21-30": 600,
    "31-40": 341,
    "41-50": 164,
    "51-60": 74,
    "61-70": 18,
    "71-": 13,
}


@criterion(6, "test-set length distribution reproduces the reference bucket counts", 1.0)
def test_06_bucket_counts_fixture():
    rng = random.Random(12)
    ranges = {
        "1-10": (1, 10),
        "11-20": (11, 20),
        "21-30": (21, 30),
        "31-40": (31, 40),
        "41-50": (41, 50),
        "51-60": (51, 60),
        "61-70": (61, 70),
        "71-": (71, 95),
    }
    lengths = []
    for label, count in EXPECTED_BUCKET_COUNTS.items():
        lo, hi = ranges[label]
        bucket_lengths = [lo, hi]  # pin both boundaries
        bucket_lengths += [rng.randint(lo, hi) for _ in range(count - 2)]
        lengths.extend(bucket_lengths)
    rng.shuffle(lengths)
    assert len(lengths) == 1812
    srcs = [" ".join(["s"] * k) for k in lengths]
    hyps = refs = ["a b c"] * len(lengths)
    report = bucketed_bleu(hyps, refs, srcs, STANDARD_BUCKETS)
    got = {label: bs.count for label, bs in report.per_bucket.items()}
    assert got == EXPECTED_BUCKET_COUNTS
    assert sum(got.values()) == 1812


JUDGMENT_ROWS = {
    # bucket label: (adequacy win/tie/lose, fluency win/tie/lose)
    "1-10": ((4, 5, 3), (3, 7, 2)),
    "11-20": ((20, 39, 29), (21, 47, 20)),
    "21-30": ((34, 35, 31), (33, 42, 25)),
    "31-40": ((23, 21, 13), (17, 24, 16)),
    "41-50": ((10, 6, 11), (6, 10, 11)),
    "51-": ((6, 5, 6), (7, 6, 4)),
}
REPRESENTATIVE_LEN = {"1-10": 5, "11-20": 15, "21-30": 25, "31-40": 35, "41-50": 45, "51-": 60}


@criterion(7, "pairwise judgment tally reproduces the reference overall row", 1.0)
def test_07_judgment_tally_fixture():
    judgments = []
    for label, (adequacy, fluency) in JUDGMENT_ROWS.items():
        for dimension, counts in (("adequacy", adequacy), ("fluency", fluency)):
            for verdict, count in zip(("win", "tie", "lose"), counts):
                for k in range(count):
                    judgments.append(
                        Judgment(
                            f"{label}/{dimension}/{verdict}/{k}",
                            REPRESENTATIVE_LEN[label],
                            dimension,
                            verdict,
                        )
                    )
    tally = tally_judgments(judgments, PAIRWISE_BUCKETS)
    assert tally.overall["adequacy"] == (97, 111, 93)
    assert tally.overall["fluency"] == (87, 136, 78)
    # per-bucket rows survive intact too
    assert tally.rows["21-30"]["adequacy"] == (34, 35, 31)
    assert tally.rows["41-50"]["fluency"] == (6, 10, 11)


def _fixture_report(buckets, counts, scores, overall):
    per_bucket = {
        label: BucketScore(score, count)
        for label, score, count in zip(buckets.labels, scores, counts)
    }
    return BleuReport(
        overall=overall,
        per_bucket=per_bucket,
        n_order=4,
        bp=1.0,
        precisions=(0.0, 0.0, 0.0, 0.0),
        hyp_len=0,
        ref_len=0,
    )


@criterion(8, "score diffs: +0.6 overall on the test set, +2.2 in the 101-200 bucket", 1.0)
def test_08_diff_fixtures():
    counts = [73, 529, 600, 341, 164, 74, 18, 13]
    with_concat = _fixture_report(
        STANDARD_BUCKETS, counts, [25.4, 25.6, 28.6, 30.1, 33.1, 31.5, 29.9, 30.1], 29.4
    )
    without = _fixture_report(
        STANDARD_BUCKETS, counts, [24.3, 25.5, 28.3, 29.5, 31.6, 30.6, 28.7, 28.7], 28.8
    )
    diff = diff_by_bucket(with_concat, without)
    assert abs(diff.overall - 0.6) < 1e-9

    held_counts = [22725, 232829, 329597, 219845, 109528, 47851, 20526, 15557, 1540]
    held_with = _fixture_report(
        EXTENDED_BUCKETS,
        held_counts,
        [18.3, 17.9, 20.2, 22.3, 23.4, 24.4, 24.8, 25.4, 22.3],
        22.2,
    )
    held_without = _fixture_report(
        EXTENDED_BUCKETS,
        held_counts,
        [18.2, 17.9, 20.1, 22.1, 23.2, 24.3, 24.6, 25.1, 20.1],
        22.1,
    )
    held_diff = diff_by_bucket(held_with, held_without)
    assert abs(held_diff.per_bucket["101-200"] - 2.2) < 1e-9
    assert abs(held_diff.overall - 0.1) < 1e-9


@criterion(9, "two full pipeline runs produce byte-identical artifacts", 30.0)
def test_09_end_to_end_determinism(tmp_path):
    train = make_corpus(200, seed=404, min_len=13, max_len=24)
    # targets keep about 80% of their source's tokens, so the identity
    # decodes match real n-grams and the compared reports carry nonzero scores
    base = make_corpus(60, seed=405, min_len=2, max_len=40, unique_lines=False)
    rng = random.Random(406)
    test = Corpus(
        base.sources,
        [
            " ".join(t if rng.random() < 0.8 else f"v{rng.randint(0, 30)}" for t in line.split())
            for line in base.sources
        ],
        base.origins,
        name=base.name,
    )
    train_src, train_tgt = write_pair_files(tmp_path, train, prefix="train")
    test_src, test_tgt = write_pair_files(tmp_path, test, prefix="test")

    def run(out_name):
        config = PipelineConfig(
            source=str(train_src),
            target=str(train_tgt),
            test_source=str(test_src),
            test_target=str(test_tgt),
            out_dir=str(tmp_path / out_name),
            recipe="vanilla+bt+concat",
            base_size=100,
            forward_cmd=mock_cmd("identity"),
            backward_cmd=mock_cmd("identity"),
            run_seeds=(1, 2, 3),
        )
        cmd_run(config)
        return tmp_path / out_name

    out_a = run("det-a")
    out_b = run("det-b")
    compared = 0
    for path_a in sorted(out_a.rglob("*")):
        if not path_a.is_file() or path_a.name == "resolved.cfg":
            continue  # the config snapshot differs by out_dir alone
        path_b = out_b / path_a.relative_to(out_a)
        assert path_b.is_file(), f"missing from second run: {path_b}"
        assert path_a.read_bytes() == path_b.read_bytes(), f"differs: {path_a.name}"
        compared += 1
    # mixes, manifests, per-run reports, averaged CSV, table, chart, metadata
    names = {p.name for p in out_a.rglob("*") if p.is_file()}
    assert {"train.src", "train.tgt", "train.manifest", "averaged.csv",
            "bucket_table.md", "scores.svg", "metadata.txt"} <= names
    assert compared >= 12
    averaged = report_from_csv((out_a / "report" / "averaged.csv").read_text(encoding="utf-8"))
    scores = [averaged.overall] + [bs.score for bs in averaged.per_bucket.values()]
    assert any(s is not None and 0.0 < s < 100.0 for s in scores), scores


@criterion(10, "throughput: concat >= 100K pairs/s, BLEU >= 50K sentences/s at 1M scale", 120.0)
def test_10_throughput():
    # measured in a fresh subprocess, as benchmarks should be: rates must
    # reflect the operations, not allocator state accumulated by the
    # preceding 180 tests in this process
    import json
    import subprocess
    import sys

    script = Path(__file__).parent / "perf_throughput.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=115
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rates = json.loads(proc.stdout.strip().splitlines()[-1])
    print(
        f"    concat: {rates['concat_pairs_per_s'] / 1e3:.0f}K pairs/s, "
        f"bleu: {rates['bleu_sentences_per_s'] / 1e3:.0f}K sent/s, "
        f"peak rss: {rates['peak_rss_gib']:.1f} GiB"
    )
    assert rates["n_pairs"] == 1_000_000
    assert rates["concat_pairs_per_s"] >= 100_000
    assert rates["bleu_sentences_per_s"] >= 50_000
    assert rates["peak_rss_gib"] < 5.0, "memory should stay bounded by the pool and its concatenations"
