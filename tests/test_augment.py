import numpy as np
import pytest

from bitextaug.augment import AugmentConfig, concat_augment, concat_pair, measure_concat_mean
from bitextaug.corpus import Corpus, Origin, SentencePair, Side, sample
from bitextaug.errors import AugmentationError, ValidationError
from bitextaug.pipeline import PipelineConfig

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


def replayed(pool, cfg):
    """Concat's draws replayed one by one from the same generator calls.

    Returns the kept (first, second) pool rows and the draw, short-rejection
    and self-rejection counts up to the last kept draw.
    """
    lens = [len(line.split()) for line in pool.column(cfg.length_side)]
    sep_add = int(cfg.count_sep_in_length)
    rng = np.random.default_rng(cfg.seed)
    kept, draws, short, self_pairs, generated = [], 0, 0, 0, 0
    while len(kept) < cfg.target_count:
        need = cfg.target_count - len(kept)
        batch = min(max(4096, 2 * need), 1 << 17, cfg.max_attempts_factor * cfg.target_count - generated)
        generated += batch
        for a, b in rng.integers(0, len(pool), size=(batch, 2)).tolist():
            if len(kept) == cfg.target_count:
                break
            draws += 1
            if a == b:
                self_pairs += 1
            elif lens[a] + lens[b] + sep_add < cfg.min_concat_len:
                short += 1
            else:
                kept.append((a, b))
    return kept, draws, short, self_pairs, generated


class TestConcatCounters:
    def check(self, pool, cfg):
        out = concat_augment(pool, cfg)
        kept, draws, short, self_pairs, generated = replayed(pool, cfg)
        assert out.sources == tuple(f"{pool.sources[a]} <sep> {pool.sources[b]}" for a, b in kept)
        counters = tuple(int(out.meta[k]) for k in ("draws", "rejected_short", "rejected_self"))
        assert counters == (draws, short, self_pairs)
        assert draws - short - self_pairs == len(out) == cfg.target_count
        return draws, short, self_pairs, generated

    def test_criterion_9_pools_count_only_up_to_the_last_kept_draw(self):
        # the sampled 100-pair pool and the concat seeds of the end-to-end
        # determinism run (seed 1 on the original pool, 2 on the pseudo one)
        config = PipelineConfig(base_size=100)
        train = make_corpus(200, seed=404, min_len=13, max_len=24)
        pool = sample(train, 100, config.sample_seed)
        for seed in (config.concat_seed, config.concat_seed + 1):
            cfg = config.augment_config()._replace(seed=seed, target_count=100)
            draws, _, _, generated = self.check(pool, cfg)
            assert draws < generated == 4096

    def test_cut_batch_with_both_rejections(self):
        # short lines and a small pool: every batch rejects both ways, and
        # the second batch is cut short after its last kept draw
        pool = make_corpus(30, seed=8, min_len=3, max_len=20)
        cfg = AugmentConfig(seed=12, target_count=3000, min_concat_len=25)
        draws, short, self_pairs, generated = self.check(pool, cfg)
        assert short > 0 and self_pairs > 0
        assert generated == 2 * 3000 + 4096
        assert 2 * 3000 < draws < generated


class TestMeasureConcatMean:
    def test_separator_excluded_by_default(self):
        corpus = corpus_of([pair("a b <sep> c", "x", Origin.CONCAT)])
        assert measure_concat_mean(corpus) == 3.0

    def test_every_separator_of_a_sentence_is_excluded(self):
        corpus = corpus_of(
            [pair("a <sep> b\t<sep> c", "x", Origin.CONCAT), pair("x<sep>y z", "x")]
        )
        assert measure_concat_mean(corpus) == (3 + 2) / 2

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
