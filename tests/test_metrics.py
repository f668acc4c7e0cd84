import math
import os
import random
import signal
import time

import pytest

from bitextaug.buckets import (
    EXTENDED_BUCKETS,
    PAIRWISE_BUCKETS,
    STANDARD_BUCKETS,
    BucketSpec,
    parse_bucket_spec,
)
from bitextaug import metrics
from bitextaug.errors import PipelineError, ValidationError
from bitextaug.metrics import (
    BleuReport,
    BucketScore,
    Judgment,
    average_runs,
    bucketed_bleu,
    corpus_bleu,
    diff_by_bucket,
    read_judgments,
    report_from_csv,
    report_to_csv,
    tally_judgments,
    write_judgments,
)
from bitextaug.metrics import _ngram_stats_generic, _ngram_stats_order4

from conftest import forced_shards
from oracle import oracle_bleu


def random_corpus(rng, n, vocab, min_len=1, max_len=18):
    out = []
    for _ in range(n):
        k = rng.randint(min_len, max_len)
        out.append(" ".join(rng.choice(vocab) for _ in range(k)))
    return out


class TestCorpusBleuExamples:
    def test_perfect_match_is_100(self):
        h = ["the quick brown fox jumps over the lazy dog", "machine translation of long sentences"]
        assert corpus_bleu(h, h).overall == 100.0

    def test_clipped_repetition_scores_zero(self):
        # clipped unigram precision 2/7, bigram precision 0 -> unsmoothed 0
        report = corpus_bleu(["the the the the the the the"], ["the cat is on the mat"])
        assert report.overall == 0.0  # frozen oracle value
        assert report.precisions[0] == pytest.approx(100.0 * 2 / 7, abs=1e-12)
        assert report.precisions[1] == 0.0
        assert report.bp == 1.0

    def test_brevity_penalty_closed_form(self):
        # every hypothesis n-gram matches a reference prefix; only BP < 1
        hyp = ["a b c d e", "g h i j k"]
        ref = ["a b c d e f", "g h i j k l"]
        report = corpus_bleu(hyp, ref)
        assert report.bp == pytest.approx(math.exp(1 - 12 / 10), abs=1e-15)
        assert report.overall == pytest.approx(81.87307530779819, abs=1e-9)  # frozen oracle value

    def test_one_token_identity_is_100(self):
        # orders 2..4 have no n-grams anywhere and drop out of the mean
        assert corpus_bleu(["hello"], ["hello"]).overall == 100.0

    def test_smoothing_on_higher_orders(self):
        hyp = ["a b c x e f"]
        ref = ["a b c d e f"]
        assert corpus_bleu(hyp, ref).overall == 0.0
        smoothed = corpus_bleu(hyp, ref, smooth=True)
        assert smoothed.overall == pytest.approx(48.54917717073234, abs=1e-9)  # frozen oracle value

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="1 hypotheses vs 2"):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            corpus_bleu([], [])


class TestCorpusBleuOracle:
    """Cross-checks against the independent brute-force oracle."""

    FIXTURE_SEEDS = [101, 202, 303, 404, 505]

    def test_random_fixtures_match_oracle(self):
        rng = random.Random(77)
        vocab = [f"w{i}" for i in range(40)]
        for seed in self.FIXTURE_SEEDS:
            rng.seed(seed)
            n = rng.randint(2, 20)
            refs = random_corpus(rng, n, vocab)
            hyps = []
            for r in refs:
                toks = r.split()
                if rng.random() < 0.8 and toks:
                    toks[rng.randrange(len(toks))] = rng.choice(vocab)
                hyps.append(" ".join(toks))
            got = corpus_bleu(hyps, refs).overall
            want = oracle_bleu([h.split() for h in hyps], [r.split() for r in refs])
            assert got == pytest.approx(want, abs=1e-9), f"seed {seed}"

    def test_duplicate_heavy_fixtures_match_oracle(self):
        # tiny vocabularies force repeated n-grams and exercise clipping
        rng = random.Random(13)
        for trial in range(30):
            vocab = [f"t{i}" for i in range(rng.choice([2, 3, 5]))]
            n = rng.randint(1, 15)
            refs = random_corpus(rng, n, vocab, max_len=12)
            hyps = random_corpus(rng, n, vocab, max_len=12)
            got = corpus_bleu(hyps, refs).overall
            want = oracle_bleu([h.split() for h in hyps], [r.split() for r in refs])
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    def test_other_orders_match_oracle(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(15)]
        refs = random_corpus(rng, 12, vocab)
        hyps = random_corpus(rng, 12, vocab)
        for n_order in (1, 2, 3, 5, 6):
            got = corpus_bleu(hyps, refs, n_order=n_order).overall
            want = oracle_bleu(
                [h.split() for h in hyps], [r.split() for r in refs], n_order=n_order
            )
            assert got == pytest.approx(want, abs=1e-9), f"order {n_order}"

    def test_smoothed_matches_oracle(self):
        rng = random.Random(6)
        vocab = [f"w{i}" for i in range(30)]
        refs = random_corpus(rng, 8, vocab)
        hyps = random_corpus(rng, 8, vocab)
        got = corpus_bleu(hyps, refs, smooth=True).overall
        want = oracle_bleu([h.split() for h in hyps], [r.split() for r in refs], smooth=True)
        assert got == pytest.approx(want, abs=1e-9)

    def test_fast_path_equals_generic_path(self):
        rng = random.Random(8)
        vocab = [f"w{i}" for i in range(6)]
        for trial in range(40):
            n = rng.randint(1, 12)
            hyps = random_corpus(rng, n, vocab, max_len=10)
            refs = random_corpus(rng, n, vocab, max_len=10)
            assert _ngram_stats_order4(hyps, refs) == _ngram_stats_generic(hyps, refs, 4)

    def test_repeat_free_pairs_equal_generic_path_and_oracle(self):
        # neither side repeats a token, so every pair takes the position
        # tier; hypotheses splice shared reference runs of length 1-6 with
        # tokens absent from the reference, at lengths 0-200
        edge_h = ["x a", "b x", "x y", "x a b c d", "a b c d y", ""]
        edge_r = ["a b", "a b", "a b", "a b c d", "a b c d", "a"]
        assert _ngram_stats_order4(edge_h, edge_r) == _ngram_stats_generic(edge_h, edge_r, 4)
        rng = random.Random(4)
        vocab = [f"w{i}" for i in range(5000)]
        for trial in range(60):
            hyps, refs = [], []
            for _ in range(rng.randint(1, 8)):
                rt = rng.sample(vocab, rng.randint(1, 200))
                target = rng.choice([rng.randint(0, 3), rng.randint(4, 200)])
                ht: list[str] = []
                while len(ht) < target:
                    if rng.random() < 0.6:
                        start = rng.randrange(len(rt))
                        run = rt[start : start + rng.randint(1, 6)]
                    else:
                        run = [f"x{rng.randrange(10**6)}" for _ in range(rng.randint(1, 3))]
                    ht.extend(t for t in run if t not in ht)
                ht = ht[:target]
                assert len(set(ht)) == len(ht) and len(set(rt)) == len(rt)
                hyps.append(" ".join(ht))
                refs.append(" ".join(rt))
            stats = _ngram_stats_order4(hyps, refs)
            assert stats == _ngram_stats_generic(hyps, refs, 4), f"trial {trial}"
            got = corpus_bleu(hyps, refs, smooth=True).overall
            want = oracle_bleu([x.split() for x in hyps], [x.split() for x in refs], smooth=True)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"


class TestBleuInvariants:
    def test_identity_is_100_for_randomized_corpora(self):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(50)]
        for _ in range(100):
            lines = random_corpus(rng, rng.randint(1, 30), vocab, min_len=1, max_len=25)
            h = lines
            assert corpus_bleu(h, h).overall == 100.0

    def test_score_bounds(self):
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(50):
            n = rng.randint(1, 10)
            h = random_corpus(rng, n, vocab)
            r = random_corpus(rng, n, vocab)
            score = corpus_bleu(h, r).overall
            assert 0.0 <= score <= 100.0


class TestBucketedBleu:
    def test_boundary_semantics(self):
        srcs = [" ".join(["s"] * 10), " ".join(["s"] * 11)]
        hyps = ["a b", "c d"]
        refs = ["a b", "c d"]
        report = bucketed_bleu(hyps, refs, srcs, STANDARD_BUCKETS)
        assert report.per_bucket["1-10"].count == 1
        assert report.per_bucket["11-20"].count == 1

    def test_empty_bucket_is_absent_not_zero(self):
        srcs = ["s s s"]
        hyps = refs = ["a b c"]
        report = bucketed_bleu(hyps, refs, srcs, STANDARD_BUCKETS)
        assert report.per_bucket["1-10"].score == 100.0
        for label in list(STANDARD_BUCKETS.labels)[1:]:
            assert report.per_bucket[label].score is None
            assert report.per_bucket[label].count == 0

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("n_order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("spec", ["standard", "10,20,40"], ids=["open", "finite"])
    def test_overall_equals_plain_corpus_bleu(self, spec, n_order, smooth):
        # summed per-bucket counts must reproduce corpus_bleu exactly, on
        # the covered items overall and on each bucket's members
        rng = random.Random(44)
        vocab = [f"w{i}" for i in range(25)]
        refs = random_corpus(rng, 120, vocab)
        hyps = []
        for r in refs:
            toks = [t if rng.random() < 0.8 else rng.choice(vocab) for t in r.split()]
            hyps.append(" ".join(toks) if rng.random() < 0.95 else "")
        srcs = random_corpus(rng, 120, vocab, min_len=1, max_len=60)
        buckets = parse_bucket_spec(spec)
        report = bucketed_bleu(hyps, refs, srcs, buckets, n_order=n_order, smooth=smooth)
        labels = [buckets.label_of(len(s.split())) for s in srcs]
        covered = [i for i, label in enumerate(labels) if label is not None]
        assert report.excluded == len(srcs) - len(covered)
        assert (report.excluded > 0) == (spec != "standard")
        want = corpus_bleu(
            [hyps[i] for i in covered], [refs[i] for i in covered], n_order=n_order, smooth=smooth
        )
        assert 0.0 < report.overall < 100.0
        assert report.overall == want.overall
        assert (report.bp, report.precisions) == (want.bp, want.precisions)
        assert (report.hyp_len, report.ref_len) == (want.hyp_len, want.ref_len)
        for label, bs in report.per_bucket.items():
            members = [i for i in covered if labels[i] == label]
            assert bs.count == len(members)
            if not members:
                assert bs.score is None
                continue
            plain = corpus_bleu(
                [hyps[i] for i in members], [refs[i] for i in members],
                n_order=n_order, smooth=smooth,
            )
            assert bs.score == plain.overall, label

    def test_empty_decodes_in_one_bucket_score_zero(self):
        # every hypothesis of bucket 1-10 is empty; 11-20 is a perfect match
        hyps = ["", "a b c"]
        refs = ["a", "a b c"]
        srcs = ["s", " ".join(["s"] * 15)]
        report = bucketed_bleu(hyps, refs, srcs, STANDARD_BUCKETS)
        assert report.per_bucket["1-10"] == BucketScore(0.0, 1)
        assert report.per_bucket["11-20"] == BucketScore(100.0, 1)
        assert (report.hyp_len, report.ref_len) == (3, 4)
        assert report.bp == pytest.approx(math.exp(1 - 4 / 3), abs=1e-15)
        assert report.overall == pytest.approx(
            oracle_bleu([h.split() for h in hyps], [r.split() for r in refs]), abs=1e-9
        )

    def test_all_empty_decodes_score_zero(self):
        hyps = ["", " ", ""]
        refs = ["a b", "c", "d e f"]
        srcs = ["s", "s s", " ".join(["s"] * 12)]
        report = bucketed_bleu(hyps, refs, srcs, STANDARD_BUCKETS, n_order=3)
        assert report.overall == 0.0
        assert report.bp == 0.0
        assert report.precisions == (0.0, 0.0, 0.0)
        assert (report.hyp_len, report.ref_len) == (0, 6)
        assert report.per_bucket["1-10"] == BucketScore(0.0, 2)
        assert report.per_bucket["11-20"] == BucketScore(0.0, 1)
        plain = corpus_bleu(hyps, refs, n_order=3, smooth=True)
        assert (plain.overall, plain.bp, plain.precisions) == (0.0, 0.0, (0.0, 0.0, 0.0))

    def test_bad_order_rejected(self):
        with pytest.raises(ValidationError, match="n_order"):
            bucketed_bleu(["a"], ["a"], ["s"], STANDARD_BUCKETS, n_order=0)

    def test_finite_spec_excludes_overlong_items(self):
        srcs = [" ".join(["s"] * 5), " ".join(["s"] * 300)]
        hyps = ["a b", "x y"]
        refs = ["a b", "z w"]
        report = bucketed_bleu(hyps, refs, srcs, EXTENDED_BUCKETS)
        assert report.excluded == 1
        assert sum(bs.count for bs in report.per_bucket.values()) == 1
        # overall covers only in-range items: the perfect first pair
        assert report.overall == 100.0

    def test_counts_sum_to_evaluated(self):
        rng = random.Random(21)
        vocab = [f"w{i}" for i in range(30)]
        hyps = random_corpus(rng, 200, vocab)
        refs = random_corpus(rng, 200, vocab)
        srcs = random_corpus(rng, 200, vocab, min_len=1, max_len=250)
        report = bucketed_bleu(hyps, refs, srcs, EXTENDED_BUCKETS)
        assert sum(bs.count for bs in report.per_bucket.values()) + report.excluded == 200

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="equal lengths"):
            bucketed_bleu(["a"], ["a"], ["s", "s"], STANDARD_BUCKETS)


class TestShardWorkers:
    """BLEU scored in two shards, the second in a forked child, with a kernel that fails."""

    HYPS = ["the cat sat on the mat", "a dog ran", "one two three four"] * 4

    @pytest.fixture
    def forked(self):
        """Force two shards; the pids of the shard workers forked."""
        with forced_shards(cpus=2, min_chars=1) as pids:
            yield pids

    def kernel_in_child(self, monkeypatch, child_kernel):
        """Run child_kernel in place of the n-gram kernel in forked children only."""
        parent = os.getpid()
        real = metrics._ngram_stats

        def kernel(hyps, refs, n_order):
            if os.getpid() == parent:
                return real(hyps, refs, n_order)
            return child_kernel()

        monkeypatch.setattr(metrics, "_ngram_stats", kernel)

    @staticmethod
    def assert_reaped(pids):
        assert pids
        for pid in pids:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue  # reaped already
            if done == 0:  # still running: clean up before failing
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pytest.fail(f"shard worker {pid} was left unreaped")

    def test_exception_in_child_is_raised_in_parent(self, forked, monkeypatch):
        def boom():
            raise ZeroDivisionError("shard kernel failed")

        self.kernel_in_child(monkeypatch, boom)
        with pytest.raises(ZeroDivisionError, match="shard kernel failed"):
            corpus_bleu(self.HYPS, self.HYPS)
        self.assert_reaped(forked)

    def test_child_dying_without_counts_raises(self, forked, monkeypatch):
        self.kernel_in_child(monkeypatch, lambda: os._exit(3))
        with pytest.raises(PipelineError, match=r"ended \(exit code 3\) without sending its counts"):
            corpus_bleu(self.HYPS, self.HYPS)
        self.assert_reaped(forked)

    def test_interrupt_kills_and_reaps_running_children(self, forked, monkeypatch):
        parent = os.getpid()

        def kernel(hyps, refs, n_order):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(metrics, "_ngram_stats", kernel)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            corpus_bleu(self.HYPS, self.HYPS)
        assert time.monotonic() - start < 30
        self.assert_reaped(forked)


def _report(scores: dict, counts: dict, overall: float) -> BleuReport:
    per_bucket = {
        label: BucketScore(scores[label], counts[label]) for label in scores
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


class TestAverageRuns:
    def test_three_run_mean(self):
        counts = {"1-10": 5}
        reports = [_report({"1-10": s}, counts, s) for s in (26.0, 27.0, 26.6)]
        avg = average_runs(reports)
        assert avg.overall == pytest.approx(26.533333333333335, abs=1e-12)
        assert f"{round(avg.overall, 1):.1f}" == "26.5"
        assert avg.per_bucket["1-10"].count == 5

    def test_single_report_identity(self):
        rep = _report({"1-10": 50.0}, {"1-10": 3}, 50.0)
        assert average_runs([rep]) == rep

    def test_order_invariant(self):
        counts = {"1-10": 2}
        reports = [_report({"1-10": s}, counts, s) for s in (10.0, 20.0, 40.0)]
        assert average_runs(reports).overall == average_runs(reports[::-1]).overall

    def test_k_copies_equals_original(self):
        rep = _report({"1-10": 33.3, "11-20": None}, {"1-10": 4, "11-20": 0}, 33.3)
        avg = average_runs([rep, rep, rep])
        assert avg.overall == rep.overall
        assert avg.per_bucket == rep.per_bucket

    def test_mismatched_counts_rejected(self):
        a = _report({"1-10": 1.0}, {"1-10": 3}, 1.0)
        b = _report({"1-10": 2.0}, {"1-10": 4}, 2.0)
        with pytest.raises(ValidationError, match="counts"):
            average_runs([a, b])

    def test_mismatched_buckets_rejected(self):
        a = _report({"1-10": 1.0}, {"1-10": 3}, 1.0)
        b = _report({"1-20": 2.0}, {"1-20": 3}, 2.0)
        with pytest.raises(ValidationError, match="bucket specs"):
            average_runs([a, b])


class TestDiffByBucket:
    def test_self_diff_is_zero(self):
        rep = _report({"1-10": 20.0, "11-20": None}, {"1-10": 5, "11-20": 0}, 20.0)
        diff = diff_by_bucket(rep, rep)
        assert diff.overall == 0.0
        assert diff.per_bucket["1-10"] == 0.0
        assert diff.per_bucket["11-20"] is None

    def test_antisymmetry(self):
        a = _report({"1-10": 22.0}, {"1-10": 5}, 25.0)
        b = _report({"1-10": 19.5}, {"1-10": 5}, 24.0)
        d1 = diff_by_bucket(a, b)
        d2 = diff_by_bucket(b, a)
        assert d1.overall == -d2.overall
        assert d1.per_bucket["1-10"] == -d2.per_bucket["1-10"]

    def test_absent_propagates(self):
        a = _report({"1-10": 22.0, "11-20": 5.0}, {"1-10": 5, "11-20": 1}, 25.0)
        b = _report({"1-10": 19.5, "11-20": None}, {"1-10": 5, "11-20": 0}, 24.0)
        # counts differ in 11-20 but diff only requires matching labels
        diff = diff_by_bucket(a, b)
        assert diff.per_bucket["11-20"] is None

    def test_bucket_mismatch_rejected(self):
        a = _report({"1-10": 1.0}, {"1-10": 3}, 1.0)
        b = _report({"1-20": 2.0}, {"1-20": 3}, 2.0)
        with pytest.raises(ValidationError):
            diff_by_bucket(a, b)


class TestJudgments:
    def judgment_fixture(self):
        rows = [
            ("i1", 5, "adequacy", "win"),
            ("i1", 5, "fluency", "tie"),
            ("i2", 15, "adequacy", "lose"),
            ("i2", 15, "fluency", "win"),
            ("i3", 55, "adequacy", "tie"),
            ("i3", 55, "fluency", "tie"),
        ]
        return [Judgment(*r) for r in rows]

    def test_tally_and_overall(self):
        tally = tally_judgments(self.judgment_fixture(), PAIRWISE_BUCKETS)
        assert tally.rows["1-10"]["adequacy"].win == 1
        assert tally.rows["11-20"]["adequacy"].lose == 1
        assert tally.rows["51-"]["fluency"].tie == 1
        assert tally.overall["adequacy"] == (1, 1, 1)
        assert tally.overall["fluency"] == (1, 2, 0)

    def test_empty_set_all_zeros(self):
        tally = tally_judgments([], PAIRWISE_BUCKETS)
        assert all(
            tally.rows[label][d] == (0, 0, 0)
            for label in PAIRWISE_BUCKETS.labels
            for d in ("adequacy", "fluency")
        )
        assert tally.overall["adequacy"] == (0, 0, 0)

    def test_overall_equals_column_sums(self):
        rng = random.Random(10)
        judgments = [
            Judgment(f"i{k}", rng.randint(1, 80), d, rng.choice(["win", "tie", "lose"]))
            for k in range(120)
            for d in ("adequacy", "fluency")
        ]
        tally = tally_judgments(judgments, PAIRWISE_BUCKETS)
        for d in ("adequacy", "fluency"):
            sums = [0, 0, 0]
            for label in PAIRWISE_BUCKETS.labels:
                for i in range(3):
                    sums[i] += tally.rows[label][d][i]
            assert tuple(sums) == tally.overall[d]

    def test_duplicate_rejected(self):
        judgments = [
            Judgment("i1", 5, "adequacy", "win"),
            Judgment("i1", 5, "adequacy", "lose"),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            tally_judgments(judgments, PAIRWISE_BUCKETS)

    def test_bad_verdict_rejected(self):
        with pytest.raises(ValidationError, match="verdict"):
            tally_judgments([Judgment("i", 5, "adequacy", "draw")], PAIRWISE_BUCKETS)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "judgments.tsv"
        write_judgments(path, self.judgment_fixture())
        assert read_judgments(path) == self.judgment_fixture()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "judgments.tsv"
        path.write_text("id\tlen\tdim\tv\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            read_judgments(path)


class TestReportCsv:
    def test_round_trip(self):
        rep = _report({"1-10": 26.53219, "11-20": None}, {"1-10": 73, "11-20": 0}, 29.412)
        again = report_from_csv(report_to_csv(rep))
        assert again.overall == rep.overall
        assert again.per_bucket == rep.per_bucket
        assert again.n_order == rep.n_order

    def test_full_precision_preserved(self):
        value = 26.533333333333335
        rep = _report({"1-10": value}, {"1-10": 1}, value)
        again = report_from_csv(report_to_csv(rep))
        assert again.per_bucket["1-10"].score == value


class TestBucketSpecParsing:
    def test_named_specs(self):
        assert parse_bucket_spec("standard") is STANDARD_BUCKETS
        assert parse_bucket_spec("extended") is EXTENDED_BUCKETS
        assert parse_bucket_spec("pairwise") is PAIRWISE_BUCKETS

    def test_custom_bounds(self):
        spec = parse_bucket_spec("10,20,inf")
        assert spec.labels == ("1-10", "11-20", "21-")

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_bucket_spec("ten,twenty")

    def test_bucket_spec_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            BucketSpec.from_bounds([10, 10])
        with pytest.raises(ValidationError):
            BucketSpec.from_bounds([20, 10])
        with pytest.raises(ValidationError):
            BucketSpec.from_bounds([])
