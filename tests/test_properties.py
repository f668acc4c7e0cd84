"""Property tests: corpus file round trip, concat and mix alignment, sampling, BLEU and buckets."""

import math
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bitextaug.augment import AugmentConfig, concat_augment
from bitextaug.buckets import STANDARD_BUCKETS, BucketSpec
from bitextaug.corpus import Corpus, Origin, holdout_split, load_parallel, sample, save_parallel
from bitextaug.metrics import bucketed_bleu, corpus_bleu
from bitextaug.mix import MixRecipe, build_mix

from conftest import forced_shards
from oracle import oracle_bleu

SETTINGS = settings(max_examples=30, deadline=None)

# any non-blank UTF-8 line without \n or \r; edge whitespace and other
# Unicode line separators (U+2028, \x1c, ...) must survive as ordinary characters
file_lines = st.text(
    st.one_of(
        st.sampled_from(" \t\x0b\x0c\x1c\x85\u2028\u3000a"),
        st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"),
    ),
    min_size=1,
).filter(lambda line: not line.isspace())
# short token soup over a tiny alphabet, so separators and repeats are likely
pool_lines = st.text(alphabet="ab <>\t", min_size=1, max_size=12).filter(
    lambda line: not line.isspace() and "<sep>" not in line.split()
)
non_concat = st.sampled_from([o for o in Origin if o is not Origin.CONCAT])


@st.composite
def pools(draw, min_size=2, max_size=25):
    pairs = draw(st.lists(st.tuples(pool_lines, pool_lines), min_size=min_size, max_size=max_size))
    sources, targets = zip(*pairs)
    return Corpus(sources, targets, [Origin.ORIGINAL] * len(pairs), name="pool")


@st.composite
def split_sizes(draw):
    """(corpus size, train_n, test_n) with train_n + test_n <= size."""
    size = draw(st.integers(0, 60))
    train_n = draw(st.integers(0, size))
    return size, train_n, draw(st.integers(0, size - train_n))


def numbered(n):
    return Corpus([f"s{i}" for i in range(n)], [f"t{i}" for i in range(n)], [Origin.ORIGINAL] * n)


def rows_of(corpus):
    return [int(line[1:]) for line in corpus.sources]


def assert_concat_row_from_pool(source, target, pool_rows):
    s_first, s_second = source.split(" <sep> ")
    t_first, t_second = target.split(" <sep> ")
    first, second = (s_first, t_first), (s_second, t_second)
    assert first in pool_rows and second in pool_rows
    if first == second:  # two distinct rows that happen to hold the same pair
        assert pool_rows[first] >= 2


@SETTINGS
@given(st.lists(st.tuples(file_lines, file_lines), max_size=20), non_concat)
def test_save_then_load_round_trips(pairs, origin):
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    corpus = Corpus(sources, targets, [origin] * len(pairs))
    with tempfile.TemporaryDirectory() as td:
        src, tgt = Path(td) / "c.src", Path(td) / "c.tgt"
        save_parallel(corpus, src, tgt)
        again = load_parallel(src, tgt, origin=origin)
    assert again == corpus


@SETTINGS
@given(pools(), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_concat_halves_come_from_two_pool_rows(pool, count, seed):
    out = concat_augment(pool, AugmentConfig(seed=seed, target_count=count, min_concat_len=0))
    assert len(out) == count
    assert set(out.origins) <= {Origin.CONCAT}
    pool_rows = Counter(zip(pool.sources, pool.targets))
    for source, target in zip(out.sources, out.targets):
        assert_concat_row_from_pool(source, target, pool_rows)


@SETTINGS
@given(split_sizes(), st.integers(0, 2**32 - 1))
def test_sample_keeps_order_and_alignment(sizes, seed):
    size, n, _ = sizes
    out = sample(numbered(size), n, seed)
    rows = rows_of(out)
    assert len(rows) == n
    assert rows == sorted(set(rows))
    assert out.targets == tuple(f"t{i}" for i in rows)


@SETTINGS
@given(split_sizes(), st.integers(0, 2**32 - 1))
def test_holdout_split_keeps_order_and_is_disjoint(sizes, seed):
    size, train_n, test_n = sizes
    train, heldout = holdout_split(numbered(size), train_n, test_n, seed)
    train_rows, held_rows = rows_of(train), rows_of(heldout)
    assert (len(train_rows), len(held_rows)) == (train_n, test_n)
    assert train_rows == sorted(set(train_rows))
    assert held_rows == sorted(set(held_rows))
    assert set(train_rows).isdisjoint(held_rows)
    for part, rows in ((train, train_rows), (heldout, held_rows)):
        assert part.targets == tuple(f"t{i}" for i in rows)


@SETTINGS
@given(pools(), st.sampled_from(["vanilla", "vanilla+concat"]), st.integers(0, 2**32 - 1))
def test_build_mix_keeps_rows_aligned_through_the_shuffle(pool, recipe_name, seed):
    recipe = MixRecipe(recipe_name, base_size=len(pool), seed=seed)
    mixed = build_mix(recipe, pool, augment=AugmentConfig(seed=0, min_concat_len=0))
    assert len(mixed) == recipe.total_size
    pool_rows = Counter(zip(pool.sources, pool.targets))
    originals = Counter()
    for row in mixed:
        if row.origin is Origin.CONCAT:
            assert_concat_row_from_pool(row.source, row.target, pool_rows)
        else:
            assert row.origin is Origin.ORIGINAL
            originals[row.source, row.target] += 1
    assert originals == pool_rows


# --- BLEU -------------------------------------------------------------------

# a six-word vocabulary, so tokens and n-grams repeat within and across
# sentences; most sentences are short, some belong to a long tail
words = st.sampled_from(["a", "b", "c", "d", "e", "f"])


def token_lists(min_size):
    return st.one_of(
        st.lists(words, min_size=min_size, max_size=8),
        st.lists(words, min_size=40, max_size=90),
    )


@st.composite
def scoring_sets(draw, max_size=25):
    """(hypothesis, reference, source) token lists; some hypotheses empty, some equal their reference."""
    n = draw(st.integers(1, max_size))
    refs = draw(st.lists(token_lists(0), min_size=n, max_size=n))
    srcs = draw(st.lists(token_lists(1), min_size=n, max_size=n))
    hyps = [ref if draw(st.booleans()) else draw(token_lists(0)) for ref in refs]
    return hyps, refs, srcs


@st.composite
def bucket_specs(draw):
    bounds = sorted(draw(st.sets(st.integers(1, 95), min_size=1, max_size=4)))
    if draw(st.booleans()):
        bounds.append(math.inf)
    return BucketSpec.from_bounds(bounds)


def joined(token_lists_):
    return [" ".join(tokens) for tokens in token_lists_]


def linear_bucket(spec, length):
    """Index of the first bucket whose bound is at least length, else None."""
    for i, bound in enumerate(spec.bounds):
        if length <= bound:
            return i
    return None


@SETTINGS
@given(scoring_sets(), st.integers(1, 5), st.booleans())
def test_corpus_bleu_matches_oracle(data, n_order, smooth):
    hyps, refs, _ = data
    got = corpus_bleu(joined(hyps), joined(refs), n_order=n_order, smooth=smooth).overall
    assert math.isclose(got, oracle_bleu(hyps, refs, n_order, smooth), rel_tol=0, abs_tol=1e-9)


@SETTINGS
@given(scoring_sets(), bucket_specs(), st.integers(1, 5), st.booleans())
def test_bucketed_bleu_matches_oracle_per_bucket(data, spec, n_order, smooth):
    hyps, refs, srcs = data
    members = [[] for _ in spec.labels]
    for i, src in enumerate(srcs):
        b = linear_bucket(spec, len(src))
        if b is not None:
            members[b].append(i)
    covered = [i for m in members for i in m]
    assume(covered)
    report = bucketed_bleu(joined(hyps), joined(refs), joined(srcs), spec, n_order, smooth)
    assert report.excluded == len(srcs) - len(covered)

    def oracle(idx):
        return oracle_bleu([hyps[i] for i in idx], [refs[i] for i in idx], n_order, smooth)

    assert math.isclose(report.overall, oracle(covered), rel_tol=0, abs_tol=1e-9)
    for label, m in zip(spec.labels, members):
        bucket = report.per_bucket[label]
        assert bucket.count == len(m)
        if m:
            assert math.isclose(bucket.score, oracle(m), rel_tol=0, abs_tol=1e-9)
        else:
            assert bucket.score is None


@SETTINGS
@given(bucket_specs(), st.integers(1, 300))
def test_bucket_assignment_is_a_linear_scan(spec, length):
    assert spec.index_of(length) == linear_bucket(spec, length)


@SETTINGS
@given(scoring_sets(max_size=40), st.integers(1, 5), st.booleans())
def test_reports_do_not_depend_on_the_shard_count(data, n_order, smooth):
    hyps, refs, srcs = (joined(side) for side in data)
    chars = sum(map(len, hyps))
    assume(chars >= 3 * 4)  # chars // (chars // w) == w for w <= 3
    reports = []
    for w in (1, 2, 3):
        with forced_shards(3, chars // w) as forked:
            reports.append(
                (
                    corpus_bleu(hyps, refs, n_order, smooth),
                    bucketed_bleu(hyps, refs, srcs, STANDARD_BUCKETS, n_order, smooth),
                )
            )
        assert len(forked) == 2 * (w - 1)
    assert reports[0] == reports[1] == reports[2]
