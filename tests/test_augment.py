import pytest

from bitextaug.augment import AugmentConfig, concat_augment, concat_pair, measure_concat_mean
from bitextaug.corpus import Corpus, Origin, SentencePair, Side
from bitextaug.errors import AugmentationError, ValidationError

from conftest import corpus_of, make_corpus


def pair(src, tgt, origin=Origin.ORIGINAL):
    return SentencePair(src, tgt, origin)


class TestConcatPair:
    def test_basic(self):
        out = concat_pair(pair("a b c", "x y"), pair("d e", "z"))
        assert out.source == "a b c <sep> d e"
        assert out.target == "x y <sep> z"
        assert out.origin is Origin.CONCAT

    def test_pair_with_itself_allowed_at_this_level(self):
        p = pair("p", "q")
        out = concat_pair(p, p)
        assert out.source == "p <sep> p"
        assert out.target == "q <sep> q"

    def test_already_concatenated_rejected(self):
        c = concat_pair(pair("a", "x"), pair("b", "y"))
        with pytest.raises(ValidationError, match="already concatenated"):
            concat_pair(c, c)

    def test_separator_in_input_rejected(self):
        with pytest.raises(ValidationError, match="separator token"):
            concat_pair(pair("a <sep> b", "x", Origin.ORIGINAL), pair("c", "y"))

    def test_custom_separator(self):
        out = concat_pair(pair("a", "x"), pair("b", "y"), sep="<join>")
        assert out.source == "a <join> b"


class TestAugmentConfig:
    def test_sep_token_must_be_single_token(self):
        with pytest.raises(ValidationError):
            AugmentConfig(seed=0, sep_token="two words").validate()
        with pytest.raises(ValidationError):
            AugmentConfig(seed=0, sep_token="").validate()

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            AugmentConfig(seed=0, min_concat_len=-1).validate()
        with pytest.raises(ValidationError):
            AugmentConfig(seed=0, target_count=-5).validate()


class TestConcatAugment:
    def test_no_filtering_when_pool_long_enough(self):
        # all source lengths >= 13, so 13 + 13 = 26 >= 25: nothing rejected
        pool = make_corpus(50, seed=3, min_len=13, max_len=20)
        cfg = AugmentConfig(seed=9, target_count=1000, min_concat_len=25)
        out = concat_augment(pool, cfg)
        assert len(out) == 1000
        for p in out:
            assert p.source.split().count("<sep>") == 1
            assert p.target.split().count("<sep>") == 1
            assert len(p.source.split()) - 1 >= 26
            assert p.origin is Origin.CONCAT
        assert out.meta["rejected_short"] == "0"

    def test_unreachable_threshold(self):
        pool = make_corpus(20, seed=3, min_len=5, max_len=5)
        cfg = AugmentConfig(seed=1, target_count=10, min_concat_len=25)
        with pytest.raises(AugmentationError, match=r"max concatenated length 10 < min_concat_len 25"):
            concat_augment(pool, cfg)

    def test_draw_budget_exhaustion(self):
        # threshold reachable only through the single longest pair, so the
        # acceptance rate is too low for the budget
        pairs = [pair(" ".join(["w"] * 3), "x y z") for _ in range(30)]
        pairs.append(pair(" ".join(["w"] * 30), " ".join(["v"] * 30)))
        pool = corpus_of(pairs)
        cfg = AugmentConfig(seed=1, target_count=5000, min_concat_len=32, max_attempts_factor=2)
        with pytest.raises(AugmentationError, match="within"):
            concat_augment(pool, cfg)

    def test_pool_too_small(self):
        pool = corpus_of([pair("a b", "x y")])
        with pytest.raises(ValidationError, match="at least 2"):
            concat_augment(pool, AugmentConfig(seed=0, target_count=1))

    def test_mixed_origin_pool_rejected(self):
        pairs = [
            pair("a b", "x y", Origin.ORIGINAL),
            pair("c d", "z w", Origin.PSEUDO_BT),
        ]
        with pytest.raises(ValidationError, match="homogeneous"):
            concat_augment(corpus_of(pairs), AugmentConfig(seed=0, target_count=1, min_concat_len=0))

    def test_concatenated_pool_rejected(self):
        pairs = [
            concat_pair(pair("a", "x"), pair("b", "y")),
            concat_pair(pair("c", "z"), pair("d", "w")),
        ]
        with pytest.raises(ValidationError, match="must not itself be concatenated"):
            concat_augment(corpus_of(pairs), AugmentConfig(seed=0, target_count=1, min_concat_len=0))

    def test_separator_in_pool_rejected(self):
        pairs = [pair("a <sep> b", "x"), pair("c", "y")]
        with pytest.raises(ValidationError, match="reserved separator"):
            concat_augment(corpus_of(pairs), AugmentConfig(seed=0, target_count=1, min_concat_len=0))

    def test_deterministic_under_seed(self):
        pool = make_corpus(100, seed=5, min_len=8, max_len=25)
        cfg = AugmentConfig(seed=33, target_count=500, min_concat_len=25)
        assert concat_augment(pool, cfg) == concat_augment(pool, cfg)

    def test_different_seeds_differ(self):
        pool = make_corpus(100, seed=5, min_len=8, max_len=25)
        a = concat_augment(pool, AugmentConfig(seed=1, target_count=200, min_concat_len=25))
        b = concat_augment(pool, AugmentConfig(seed=2, target_count=200, min_concat_len=25))
        assert a != b

    def test_halves_recovered_from_pool_with_aligned_provenance(self):
        pool = make_corpus(60, seed=21, min_len=6, max_len=18)
        by_source = {p.source: p.target for p in pool}
        cfg = AugmentConfig(seed=2, target_count=400, min_concat_len=12)
        out = concat_augment(pool, cfg)
        for p in out:
            s_first, s_second = p.source.split(" <sep> ")
            t_first, t_second = p.target.split(" <sep> ")
            assert by_source[s_first] == t_first
            assert by_source[s_second] == t_second

    def test_two_distinct_pool_rows(self):
        # distinct indices: with unique lines, halves can never be equal
        pool = make_corpus(10, seed=2, min_len=4, max_len=6)
        out = concat_augment(pool, AugmentConfig(seed=0, target_count=300, min_concat_len=0))
        for p in out:
            first, second = p.source.split(" <sep> ")
            assert first != second

    def test_target_count_zero(self):
        pool = make_corpus(10, seed=2)
        out = concat_augment(pool, AugmentConfig(seed=0, target_count=0))
        assert len(out) == 0

    def test_length_side_target(self):
        pairs = [
            pair(" ".join(["s"] * 3), " ".join(["t"] * 20)),
            pair(" ".join(["s"] * 3), " ".join(["t"] * 20)),
        ]
        pool = corpus_of(pairs)
        cfg = AugmentConfig(seed=0, target_count=5, min_concat_len=30, length_side=Side.TARGET)
        out = concat_augment(pool, cfg)  # target side 40 >= 30 even though source is 6
        assert len(out) == 5

    def test_count_sep_in_length(self):
        pairs = [
            pair(" ".join(["s"] * 12), "t"),
            pair(" ".join(["s"] * 12), "t"),
        ]
        pool = corpus_of(pairs)
        # 12 + 12 = 24 < 25 without the separator, 25 with it
        with pytest.raises(AugmentationError):
            concat_augment(pool, AugmentConfig(seed=0, target_count=1, min_concat_len=25))
        out = concat_augment(
            pool,
            AugmentConfig(seed=0, target_count=1, min_concat_len=25, count_sep_in_length=True),
        )
        assert len(out) == 1


class TestMeasureConcatMean:
    def test_separator_excluded_by_default(self):
        corpus = corpus_of([pair("a b <sep> c", "x", Origin.CONCAT)])
        assert measure_concat_mean(corpus) == 3.0

    def test_separator_counted_when_asked(self):
        corpus = corpus_of([pair("a b <sep> c", "x", Origin.CONCAT)])
        cfg = AugmentConfig(seed=0, count_sep_in_length=True)
        assert measure_concat_mean(corpus, cfg) == 4.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            measure_concat_mean(Corpus([], [], []))

    def test_matches_brute_force_on_mixture(self):
        pool = make_corpus(80, seed=13, min_len=8, max_len=30)
        out = concat_augment(pool, AugmentConfig(seed=4, target_count=300, min_concat_len=25))
        merged = corpus_of(list(pool) + list(out))
        got = measure_concat_mean(merged)
        brute = sum(
            len([t for t in p.source.split() if t != "<sep>"]) for p in merged
        ) / len(merged)
        assert got == pytest.approx(brute, abs=1e-12)
