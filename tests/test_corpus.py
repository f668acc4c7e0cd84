import hashlib
import os
import subprocess
import sys

import pytest

from bitextaug import corpus as corpus_module
from bitextaug.augment import AugmentConfig
from bitextaug.buckets import STANDARD_BUCKETS
from bitextaug.corpus import (
    Corpus,
    Origin,
    SentencePair,
    Side,
    holdout_split,
    length_stats,
    load_parallel,
    read_lines,
    sample,
    save_parallel,
    validate_corpus,
)
from bitextaug.errors import CorpusFormatError, ValidationError
from bitextaug.mix import MixRecipe, build_mix, write_mix

from conftest import corpus_of, make_corpus, record_forks


class TestLoadParallel:
    def test_basic_alignment(self, tmp_path):
        (tmp_path / "a.src").write_text("a b\nc\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\ny z\n", encoding="utf-8")
        corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert len(corpus) == 2
        assert corpus[0].source == "a b"
        assert corpus[0].target == "x"
        assert corpus[0].source.split() == ["a", "b"]
        assert all(p.origin is Origin.ORIGINAL for p in corpus)

    def test_line_count_mismatch_reports_both_counts(self, tmp_path):
        (tmp_path / "a.src").write_text("a\nb\nc\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\ny\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"line-count mismatch 3 vs 2"):
            load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_mismatch_other_direction(self, tmp_path):
        (tmp_path / "a.src").write_text("a\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\ny\nz\nw\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"line-count mismatch 1 vs 4"):
            load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_empty_line_reports_line_number(self, tmp_path):
        (tmp_path / "a.src").write_text("\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"a\.src:1: empty sentence"):
            load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_whitespace_only_line_rejected(self, tmp_path):
        (tmp_path / "a.src").write_text("a\n   \n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\ny\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r":2: empty sentence"):
            load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_invalid_utf8(self, tmp_path):
        (tmp_path / "a.src").write_bytes(b"ok\n\xff\xfe broken\n")
        (tmp_path / "a.tgt").write_text("x\ny\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="invalid UTF-8"):
            load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_missing_trailing_newline_tolerated(self, tmp_path):
        (tmp_path / "a.src").write_text("a b\nc d", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\ny", encoding="utf-8")
        corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert [p.source for p in corpus] == ["a b", "c d"]


    def test_lone_carriage_return_is_an_error_not_a_line_break(self, tmp_path):
        # two lines per file; the first keeps a CR that must not split it
        (tmp_path / "a.src").write_bytes(b"a\rb c\nd e\n")
        (tmp_path / "a.tgt").write_bytes(b"a\rb c\nd e\n")
        with pytest.raises(CorpusFormatError, match=r"a\.src:1: carriage return"):
            load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_crlf_line_endings_are_stripped(self, tmp_path):
        (tmp_path / "a.src").write_bytes(b"a b\r\nc\r\n")
        (tmp_path / "a.tgt").write_bytes(b"x\ny z\n")
        corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert corpus.sources == ("a b", "c")
        assert corpus.targets == ("x", "y z")

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        (tmp_path / "a.src").write_bytes(b"\xef\xbb\xbfhello world\nsee \xef\xbb\xbfyou\n")
        (tmp_path / "a.tgt").write_bytes(b"\xef\xbb\xbfx\ny z\n")
        corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert corpus.sources == ("hello world", "see \ufeffyou")
        assert corpus.targets == ("x", "y z")


class TestReadLines:
    def test_lone_carriage_return_stays_inside_its_line(self, tmp_path):
        (tmp_path / "hyp.txt").write_bytes(b"a\rb c\nd e\n")
        assert read_lines(tmp_path / "hyp.txt") == ["a\rb c", "d e"]

    def test_crlf_and_empty_lines(self, tmp_path):
        (tmp_path / "hyp.txt").write_bytes(b"a b\r\n\r\n\nc")
        assert read_lines(tmp_path / "hyp.txt") == ["a b", "", "", "c"]


class TestCorpusColumns:
    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValidationError, match="columns differ in length"):
            Corpus(["a", "b"], ["x"], [Origin.ORIGINAL, Origin.ORIGINAL])

    def test_rows_view(self):
        corpus = Corpus(["a", "b"], ["x", "y"], [Origin.ORIGINAL, Origin.CONCAT])
        assert corpus[1] == SentencePair("b", "y", Origin.CONCAT)
        assert list(corpus) == [corpus[0], corpus[1]]


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path, small_corpus):
        src, tgt = tmp_path / "out.src", tmp_path / "out.tgt"
        save_parallel(small_corpus, src, tgt)
        again = load_parallel(src, tgt)
        assert again == small_corpus
        # byte-identical raw lines
        assert [p.source for p in again] == [p.source for p in small_corpus]

    def test_save_is_lf_terminated(self, tmp_path, small_corpus):
        src, tgt = tmp_path / "out.src", tmp_path / "out.tgt"
        save_parallel(small_corpus, src, tgt)
        data = src.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_first_line_starting_with_feff_is_refused(self, tmp_path):
        # scan_lines drops a leading U+FEFF as a byte-order mark, so such a
        # file would reload as a different corpus
        src, tgt = tmp_path / "out.src", tmp_path / "out.tgt"
        for sources, targets, side in (
            (["\ufeffa b", "c"], ["x", "y"], "source"),
            (["a b", "c"], ["\ufeffx", "y"], "target"),
        ):
            corpus = Corpus(sources, targets, [Origin.ORIGINAL] * 2)
            with pytest.raises(CorpusFormatError, match=f"first {side} line starts with U\\+FEFF"):
                save_parallel(corpus, src, tgt)
            assert not src.exists() and not tgt.exists()

    def test_feff_line_round_trips_unless_a_reorder_puts_it_first(self, tmp_path):
        corpus = Corpus(["a", "\ufeffb"], ["x", "\ufeffy"], [Origin.ORIGINAL] * 2)
        src, tgt = tmp_path / "out.src", tmp_path / "out.tgt"
        save_parallel(corpus, src, tgt)
        assert load_parallel(src, tgt) == corpus
        shuffled = corpus.take([1, 0], "shuffled", {})
        with pytest.raises(CorpusFormatError, match="first source and target line"):
            save_parallel(shuffled, tmp_path / "s.src", tmp_path / "s.tgt")


class TestTwoProcessWrite:
    """From _FORK_MIN_LINES lines on, and with no child of this process running, save_parallel forks a target writer."""

    @staticmethod
    def written(corpus, out_dir):
        """The digests save_parallel returns and the bytes of its files and of write_mix's."""
        out_dir.mkdir(parents=True)
        paths = out_dir / "c.src", out_dir / "c.tgt"
        digests = save_parallel(corpus, *paths)
        write_mix(corpus, out_dir / "mix")
        return digests, [path.read_bytes() for path in paths], {
            path.name: path.read_bytes() for path in sorted((out_dir / "mix").iterdir())
        }

    def test_bytes_and_digests_do_not_depend_on_the_process_count(self, tmp_path, monkeypatch):
        plain = make_corpus(40, seed=3, min_len=13, max_len=22)
        corpora = {
            "plain": plain,
            "mix": build_mix(
                MixRecipe("vanilla+concat", 40, seed=1), plain, augment=AugmentConfig(seed=1, min_concat_len=25)
            ),
            "non-ascii": Corpus(
                ["Grüße aus Köln", "東京 は 大きい", "naïve café \U0001f642"],
                ["salut", "€ 5 · ½", "ß ẞ \u3000 x"],
                [Origin.ORIGINAL] * 3,
            ),
        }
        results = {}
        for setup, forks in (("no fork", None), ("fork", 2 * len(corpora)), ("default", 0)):
            with monkeypatch.context() as mp:
                if forks is None:
                    mp.delattr(os, "fork")
                else:
                    forked = record_forks(mp)
                if forks != 0:  # without os.fork, map_forked writes the two files in turn
                    mp.setattr(corpus_module, "_FORK_MIN_LINES", 2)
                results[setup] = {name: self.written(c, tmp_path / setup / name) for name, c in corpora.items()}
            if forks is not None:
                assert len(forked) == forks, setup
                for pid in forked:
                    with pytest.raises(ChildProcessError):
                        os.waitpid(pid, os.WNOHANG)
        assert results["fork"] == results["no fork"] == results["default"]
        for digests, files, _ in results["fork"].values():
            assert digests == tuple(hashlib.sha256(data).hexdigest() for data in files)

    def test_a_running_child_keeps_both_writes_in_this_process(self, tmp_path, monkeypatch):
        # such a child (run's test side) already keeps the other CPU busy; one that has exited does not
        corpus = make_corpus(40)
        monkeypatch.setattr(corpus_module, "_FORK_MIN_LINES", 2)
        digests, forks = {}, {}
        sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            for state in ("running", "exited"):
                if state == "exited":
                    sleeper.kill()
                    os.waitid(os.P_PID, sleeper.pid, os.WEXITED | os.WNOWAIT)  # ended, not yet reaped
                with monkeypatch.context() as mp:
                    forked = record_forks(mp)
                    digests[state] = save_parallel(corpus, tmp_path / f"{state}.src", tmp_path / f"{state}.tgt")
                forks[state] = len(forked)
        finally:
            sleeper.kill()
            sleeper.wait(timeout=30)
        assert forks == {"running": 0, "exited": 1}
        assert digests["running"] == digests["exited"]

    def test_a_target_write_that_fails_in_the_child_raises_here(self, tmp_path, monkeypatch):
        corpus = make_corpus(40)
        (tmp_path / "c.tgt").mkdir()
        errors = []
        for min_lines in (len(corpus) + 1, 2):  # in turn, then in a forked child
            with monkeypatch.context() as mp:
                mp.setattr(corpus_module, "_FORK_MIN_LINES", min_lines)
                forked = record_forks(mp)
                with pytest.raises(IsADirectoryError) as raised:
                    save_parallel(corpus, tmp_path / "c.src", tmp_path / "c.tgt")
            errors.append((type(raised.value), str(raised.value)))
            assert len(forked) == (min_lines == 2)
            for pid in forked:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
        assert errors[0] == errors[1]


class TestValidateCorpus:
    def test_clean(self, small_corpus):
        assert validate_corpus(small_corpus, sep_token="<sep>") == []

    def test_separator_in_plain_pair_flagged(self):
        pairs = [SentencePair("a <sep> b", "x", Origin.ORIGINAL)]
        problems = validate_corpus(corpus_of(pairs), sep_token="<sep>")
        assert any("separator" in p for p in problems)

    def test_line_breaks_flagged(self):
        # neither line survives save_parallel then load_parallel
        corpus = corpus_of(
            [SentencePair("a\rb", "x", Origin.ORIGINAL), SentencePair("c", "y\nz", Origin.ORIGINAL)]
        )
        problems = validate_corpus(corpus)
        assert problems == [
            "pair 0: source contains a newline or carriage return",
            "pair 1: target contains a newline or carriage return",
        ]

    def test_first_line_starting_with_feff_flagged(self):
        corpus = Corpus(["\ufeffa", "\ufeffb"], ["x", "\ufeffy"], [Origin.ORIGINAL] * 2)
        assert validate_corpus(corpus) == [
            "pair 0: source starts with U+FEFF, which reads back as a byte-order mark"
        ]
        assert validate_corpus(corpus.take([1, 0], "shuffled", {})) == [
            "pair 0: source starts with U+FEFF, which reads back as a byte-order mark",
            "pair 0: target starts with U+FEFF, which reads back as a byte-order mark",
        ]

    def test_concat_pair_needs_exactly_one_separator(self):
        pairs = [SentencePair("a b", "x <sep> y", Origin.CONCAT)]
        problems = validate_corpus(corpus_of(pairs), sep_token="<sep>")
        assert any("source has 0 separator" in p for p in problems)


class TestLengthStats:
    def test_simple_mean_and_histogram(self):
        pairs = [
            SentencePair(" ".join(["w"] * 10), "x", Origin.ORIGINAL),
            SentencePair(" ".join(["w"] * 20), "x", Origin.ORIGINAL),
        ]
        stats = length_stats(corpus_of(pairs), STANDARD_BUCKETS)
        assert stats.count == 2
        assert stats.mean_source_len == 15.0
        assert stats.histogram["1-10"] == 1
        assert stats.histogram["11-20"] == 1
        assert sum(stats.histogram.values()) == 2

    def test_single_pair(self):
        pairs = [SentencePair(" ".join(["w"] * 30), "x", Origin.ORIGINAL)]
        assert length_stats(corpus_of(pairs), STANDARD_BUCKETS).mean_source_len == 30.0

    def test_merged_corpus_mean_matches_brute_force(self):
        # weighted-mean law checked against a recount over every line
        c1 = make_corpus(17, seed=1, min_len=4, max_len=30)
        c2 = make_corpus(29, seed=2, min_len=10, max_len=50)
        merged = corpus_of(list(c1) + list(c2))
        stats = length_stats(merged, STANDARD_BUCKETS)
        n1, n2 = len(c1), len(c2)
        m1 = length_stats(c1, STANDARD_BUCKETS).mean_source_len
        m2 = length_stats(c2, STANDARD_BUCKETS).mean_source_len
        assert stats.mean_source_len == pytest.approx((n1 * m1 + n2 * m2) / (n1 + n2), abs=1e-12)
        brute = sum(len(p.source.split()) for p in merged) / len(merged)
        assert stats.mean_source_len == pytest.approx(brute, abs=1e-12)

    def test_histogram_covers_all_lengths_with_open_spec(self):
        corpus = make_corpus(250, seed=5, min_len=1, max_len=120)
        stats = length_stats(corpus, STANDARD_BUCKETS)
        assert sum(stats.histogram.values()) == len(corpus)

    def test_target_side(self):
        pairs = [SentencePair("a", "x y z", Origin.ORIGINAL)]
        stats = length_stats(corpus_of(pairs), STANDARD_BUCKETS, side=Side.TARGET)
        assert stats.mean_source_len == 3.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            length_stats(Corpus([], [], []), STANDARD_BUCKETS)


class TestSample:
    def test_full_sample_is_identity(self, small_corpus):
        assert sample(small_corpus, len(small_corpus), seed=3) == small_corpus

    def test_empty_sample(self, small_corpus):
        assert len(sample(small_corpus, 0, seed=3)) == 0

    def test_oversized_sample_rejected(self, small_corpus):
        with pytest.raises(ValidationError, match="exceeds corpus size"):
            sample(small_corpus, len(small_corpus) + 1, seed=3)

    def test_deterministic_and_seed_sensitive(self):
        corpus = make_corpus(1000, seed=11)
        a = sample(corpus, 500, seed=42)
        b = sample(corpus, 500, seed=42)
        c = sample(corpus, 500, seed=43)
        assert a == b
        assert a != c

    def test_order_preserved(self):
        corpus = make_corpus(200, seed=4)
        out = sample(corpus, 50, seed=9)
        raws = [p.source for p in out]
        positions = [[p.source for p in corpus].index(r) for r in raws]
        assert positions == sorted(positions)


class TestHoldoutSplit:
    def test_disjoint_cover(self):
        corpus = make_corpus(10, seed=6)
        train, heldout = holdout_split(corpus, 6, 4, seed=2)
        train_lines = {p.source for p in train}
        held_lines = {p.source for p in heldout}
        assert len(train) == 6 and len(heldout) == 4
        assert train_lines.isdisjoint(held_lines)
        assert train_lines | held_lines == {p.source for p in corpus}

    def test_full_train_empty_test(self):
        corpus = make_corpus(12, seed=6)
        train, heldout = holdout_split(corpus, len(corpus), 0, seed=2)
        assert len(heldout) == 0
        assert {p.source for p in train} == {p.source for p in corpus}

    def test_insufficient_corpus(self):
        corpus = make_corpus(5, seed=6)
        with pytest.raises(ValidationError, match="exceeds corpus size"):
            holdout_split(corpus, 4, 2, seed=0)

    def test_deterministic(self):
        corpus = make_corpus(300, seed=8)
        a = holdout_split(corpus, 100, 150, seed=5)
        b = holdout_split(corpus, 100, 150, seed=5)
        assert a[0] == b[0] and a[1] == b[1]

    def test_union_subset_of_input(self):
        corpus = make_corpus(50, seed=8)
        train, heldout = holdout_split(corpus, 20, 10, seed=5)
        all_lines = {p.source for p in corpus}
        assert {p.source for p in train} <= all_lines
        assert {p.source for p in heldout} <= all_lines

    def test_large_split_ratio_shape(self):
        # intended large-scale use splits 2M pairs into 400K train + 1M
        # held-out; run the same ratios scaled down 1000x
        corpus = make_corpus(2000, seed=1)
        train, heldout = holdout_split(corpus, 400, 1000, seed=3)
        assert len(train) == 400
        assert len(heldout) == 1000

