"""Property tests of the columnar corpus: file round trip, concat and mix alignment, sampling."""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bitextaug.augment import AugmentConfig, concat_augment
from bitextaug.corpus import Corpus, Origin, holdout_split, load_parallel, sample, save_parallel
from bitextaug.mix import MixRecipe, build_mix

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
