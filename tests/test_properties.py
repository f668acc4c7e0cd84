"""Property tests: corpus file round trip, concat and mix alignment, sampling,
cached token counts, mix manifests, lines built when read, BLEU and buckets."""

import contextlib
import hashlib
import math
import shlex
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bitextaug import corpus as corpus_module
from bitextaug import metrics
from bitextaug import translate as translate_module
from bitextaug.augment import AugmentConfig, concat_augment
from bitextaug.buckets import STANDARD_BUCKETS, BucketSpec
from bitextaug.corpus import (
    Corpus,
    Origin,
    Side,
    _Joined,
    _Lines,
    holdout_split,
    load_parallel,
    read_sidecar,
    rows_with_token,
    sample,
    save_parallel,
    token_lengths,
)
from bitextaug.errors import CorpusFormatError
from bitextaug.metrics import bucketed_bleu, bucketed_bleu_runs, corpus_bleu, report_to_csv
from bitextaug.mix import RECIPES, MixManifest, MixRecipe, build_mix, mix_manifest, write_mix
from bitextaug.translate import Direction, TranslatorSpec, back_translate, mock_spec, self_train

from conftest import forced_shards
from oracle import oracle_bleu
from test_metrics import oracle_rows

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
@example([("\ufeffa b", "x")], Origin.ORIGINAL)
def test_save_then_load_round_trips(pairs, origin):
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    corpus = Corpus(sources, targets, [origin] * len(pairs))
    with tempfile.TemporaryDirectory() as td:
        src, tgt = Path(td) / "c.src", Path(td) / "c.tgt"
        if pairs and (sources[0].startswith("\ufeff") or targets[0].startswith("\ufeff")):
            # it would read back without the U+FEFF, taken for a byte-order mark
            with pytest.raises(CorpusFormatError, match="U\\+FEFF"):
                save_parallel(corpus, src, tgt)
            return
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


# --- cached token counts and mix manifests ----------------------------------

# words and pieces of "<sep>" joined by whitespace that str.split splits on
# (tab, U+3000, NBSP, U+2028, ...), none of which ends a line in a file
spacing = st.sampled_from([" ", "  ", "\t", "\u3000", "\u00a0", "\u2028", "\x0b", "\x1c", "\x85"])
spaced_lines = st.lists(
    st.tuples(st.sampled_from(["a", "bb", "<", "sep>", "x<sep>y"]), spacing), min_size=1, max_size=8
).map(lambda parts: "".join(word + space for word, space in parts).strip(" "))
# the same, plus "<sep>" itself as a token, for corpora that are not concat pools
token_lines = st.lists(
    st.tuples(st.sampled_from(["a", "bb", "<sep>", "x<sep>y", "<sep>z"]), spacing), min_size=1, max_size=8
).map(lambda parts: "".join(word + space for word, space in parts)).filter(lambda line: not line.isspace())

FEW = settings(max_examples=8, deadline=None)  # each example starts translator processes
# separator tokens a fast path could mistake: not one token, a longer token, or empty
ODD_TOKENS = st.sampled_from(["<sep>", "a", "x<sep>y", "<sep> a", ""])


@st.composite
def spaced_pools(draw, min_size=2, max_size=25):
    pairs = draw(st.lists(st.tuples(spaced_lines, spaced_lines), min_size=min_size, max_size=max_size))
    sources, targets = zip(*pairs)
    return Corpus(sources, targets, [Origin.ORIGINAL] * len(pairs), name="pool")


def split_counts(lines):
    return [len(line.split()) for line in lines]


def split_rows(lines, token):
    return sum(token in line.split() for line in lines)


def assert_rows_exact(corpus, token):
    """token_rows, carried or counted, equals a split scan on both sides."""
    for side in Side:
        assert corpus.token_rows(side, token) == split_rows(corpus.column(side), token)


def assert_counts_exact(corpus, sides):
    """Each side in sides has token counts, read-only int32, equal to a split of every line."""
    for side in sides:
        counts = corpus.token_counts(side)
        assert counts.dtype == np.int32
        assert not counts.flags.writeable
        assert counts.tolist() == split_counts(corpus.column(side))


def reference_manifest(corpus, sep_token):
    per_origin = Counter(origin.value for origin in corpus.origins)
    words = Counter()
    for line, origin in zip(corpus.sources, corpus.origins):
        words[origin.value] += len(line.split())
    return MixManifest(
        total=len(corpus),
        per_origin=dict(per_origin),
        with_separator=sum(sep_token in line.split() for line in corpus.sources),
        mean_source_len={origin: words[origin] / count for origin, count in per_origin.items()},
    )


# a backward translator that puts "<sep>" where a fast path could miss it:
# at the line start or end, next to a tab, inside a longer token, or nowhere
SEP_EMITTER = (
    "import sys\n"
    "forms = ['<sep> {}', '{} <sep>', '{}\\t<sep>', 'x<sep>y {}', '{}', '<sep>\\t{}']\n"
    "lines = open(sys.argv[1], encoding='utf-8', newline='\\n').read().split('\\n')[:-1]\n"
    "with open(sys.argv[2], 'w', encoding='utf-8', newline='\\n') as f:\n"
    "    f.writelines(forms[i % len(forms)].format(line) + '\\n' for i, line in enumerate(lines))\n"
)
SEP_EMITTER_SPEC = TranslatorSpec(
    f"{shlex.quote(sys.executable)} -c {shlex.quote(SEP_EMITTER)} {{IN}} {{OUT}}",
    Direction.BACKWARD,
    name="sep-emitter",
)


@SETTINGS
@given(st.lists(st.tuples(token_lines, token_lines), min_size=1, max_size=20), st.data())
def test_counts_follow_load_sample_and_take(pairs, data):
    with tempfile.TemporaryDirectory() as td:
        src, tgt = Path(td) / "c.src", Path(td) / "c.tgt"
        src.write_text("".join(s + "\n" for s, _ in pairs), encoding="utf-8")
        tgt.write_text("".join(t + "\n" for _, t in pairs), encoding="utf-8")
        corpus = load_parallel(src, tgt)
    for side in Side:
        assert corpus.token_counts(side).tolist() == split_counts(corpus.column(side))
    assert_counts_exact(corpus, Side)
    assert_rows_exact(corpus, "<sep>")
    n = data.draw(st.integers(0, len(corpus)))
    part = sample(corpus, n, data.draw(st.integers(0, 2**32 - 1)))
    assert_counts_exact(part, Side)
    assert_rows_exact(part, "<sep>")
    rows = data.draw(st.lists(st.integers(0, len(corpus) - 1), max_size=30))
    part = corpus.take(rows, "rows", {})
    assert_counts_exact(part, Side)
    assert_rows_exact(part, "<sep>")


@SETTINGS
@given(spaced_pools(), st.sets(st.sampled_from(Side)), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_concat_carries_the_counts_its_pool_cached(pool, cached, count, seed):
    for side in cached:
        pool.token_counts(side)
    cfg = AugmentConfig(seed=seed, target_count=count, min_concat_len=0)
    out = concat_augment(pool, cfg)
    assert_counts_exact(out, Side)
    drawn = [int(out.meta[key]) for key in ("draws", "rejected_short", "rejected_self")]
    assert drawn[0] - drawn[1] - drawn[2] == count


@FEW
@given(spaced_pools(max_size=12), st.sampled_from(["identity", "reverse"]))
def test_translation_keeps_the_counts_of_the_untranslated_side(pool, mode):
    for side in Side:
        pool.token_counts(side)
        pool.token_rows(side, "<sep>")
    pseudo_bt = back_translate(pool, mock_spec(mode, Direction.BACKWARD))
    pseudo_st = self_train(pool, mock_spec(mode, Direction.FORWARD))
    # the untranslated side is the pool's own column, with the facts known of it
    assert pseudo_bt.targets is pool.targets
    assert pseudo_st.sources is pool.sources
    assert_counts_exact(pseudo_bt, Side)
    assert_counts_exact(pseudo_st, Side)
    assert_rows_exact(pseudo_bt, "<sep>")
    assert_rows_exact(pseudo_st, "<sep>")


@FEW
@given(spaced_pools(), st.sampled_from(["vanilla+concat", "vanilla+bt+concat"]), st.integers(0, 2**32 - 1))
def test_build_mix_carries_source_counts_through_the_shuffle(pool, recipe_name, seed):
    recipe = MixRecipe(recipe_name, base_size=len(pool), seed=seed)
    translators = {Direction.BACKWARD: mock_spec("reverse", Direction.BACKWARD)}
    mixed = build_mix(recipe, pool, translators, AugmentConfig(seed=0, min_concat_len=0))
    assert_counts_exact(mixed, Side)
    assert mix_manifest(mixed) == reference_manifest(mixed, "<sep>")


@contextlib.contextmanager
def recorded_scans():
    """Every token_lengths and rows_with_token call in the package, as (name, lines, token)."""
    calls = []

    def recording(func):
        def record(lines, *token):
            calls.append((func.__name__, lines, token))
            return func(lines, *token)

        return record

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            for func in (token_lengths, rows_with_token):
                if name.startswith("bitextaug") and getattr(module, func.__name__, None) is func:
                    stack.enter_context(mock.patch.object(module, func.__name__, recording(func)))
        yield calls


def reversed_tokens(spec, lines, workdir, label):
    """A back-translator in-process: each line's tokens reversed, joined by tabs."""
    return ["\t".join(reversed(line.split())) for line in lines]


@SETTINGS
@given(spaced_pools(), st.booleans(), st.booleans(), ODD_TOKENS, st.integers(0, 2**32 - 1), st.data())
def test_facts_compose_without_building_lines(loaded, warm, shuffled, other, seed, data):
    with recorded_scans() as scans, mock.patch.object(translate_module, "_translated_lines", reversed_tokens):
        if warm:  # facts the loaded corpus knows before it is cut
            for side in Side:
                loaded.token_counts(side), loaded.token_rows(side, "<sep>")
        if data.draw(st.booleans()):
            part = sample(loaded, data.draw(st.integers(2, len(loaded))), seed)
        else:
            rows = data.draw(st.lists(st.integers(0, len(loaded) - 1), min_size=2, max_size=30))
            part = loaded.take(rows, "rows", {})
        cfg = AugmentConfig(seed=seed, min_concat_len=0, target_count=len(part))
        concat = concat_augment(part, cfg)
        backward = mock_spec("reverse", Direction.BACKWARD)  # never started: the lines are reversed in-process
        pseudo = back_translate(part, backward)
        recipe = MixRecipe("vanilla+bt+concat", len(part), seed=seed, shuffle_output=shuffled)
        mixed = build_mix(recipe, part, {Direction.BACKWARD: backward}, cfg)
        facts = [
            (corpus.token_counts(side), {token: corpus.token_rows(side, token) for token in ("<sep>", other)})
            for corpus in (part, concat, pseudo, mixed)
            for side in Side
        ]
        manifests = [mix_manifest(mixed, token) for token in ("<sep>", other)]
    # only loaded or translated lines were split, each column once per token
    plain = [loaded.sources, loaded.targets, part.sources, part.targets, pseudo.sources]
    for _, lines, _ in scans:
        assert type(lines) is np.ndarray and any(tuple(lines) == column for column in plain)
    assert max(Counter((name, id(lines), token) for name, lines, token in scans).values()) == 1
    expected = [
        (split_counts(lines), {token: split_rows(lines, token) for token in ("<sep>", other)})
        for corpus in (part, concat, pseudo, mixed)
        for lines in map(corpus.column, Side)
    ]
    assert [(counts.tolist(), rows) for counts, rows in facts] == expected
    assert manifests == [reference_manifest(mixed, token) for token in ("<sep>", other)]


@SETTINGS
@given(st.lists(token_lines, max_size=30), ODD_TOKENS)
def test_rows_with_token_matches_a_split_scan(lines, token):
    assert rows_with_token(lines, token) == [i for i, line in enumerate(lines) if token in line.split()]


@SETTINGS
@given(
    st.lists(st.tuples(token_lines, st.sampled_from(Origin)), min_size=1, max_size=30),
    ODD_TOKENS,
    st.booleans(),
)
def test_mix_manifest_matches_a_split_reference(rows, sep_token, cache_first):
    corpus = Corpus([s for s, _ in rows], [s for s, _ in rows], [o for _, o in rows])
    if cache_first:
        corpus.token_counts(Side.SOURCE)
    assert mix_manifest(corpus, sep_token) == reference_manifest(corpus, sep_token)


@FEW
@given(spaced_pools(min_size=6, max_size=18), st.integers(0, 2**32 - 1))
def test_manifest_counts_separators_a_back_translator_emits(pool, seed):
    translators = {Direction.BACKWARD: SEP_EMITTER_SPEC}
    mixed = build_mix(MixRecipe("vanilla+bt", len(pool), seed=seed), pool, translators)
    pseudo_sources = [s for s, o in zip(mixed.sources, mixed.origins) if o is Origin.PSEUDO_BT]
    assert any(line.startswith("<sep> ") for line in pseudo_sources)
    assert any(line.endswith("\t<sep>") for line in pseudo_sources)
    manifest = mix_manifest(mixed)
    assert manifest == reference_manifest(mixed, "<sep>")
    assert manifest.with_separator > 0


@SETTINGS
@given(spaced_pools(), st.integers(0, 2**32 - 1))
def test_write_mix_records_the_hashes_of_the_written_files(pool, seed):
    recipe = MixRecipe("vanilla+concat", len(pool), seed=seed)
    mixed = build_mix(recipe, pool, augment=AugmentConfig(seed=seed, min_concat_len=0))
    with tempfile.TemporaryDirectory() as td:
        entries = read_sidecar(write_mix(mixed, td))
        for side in ("source", "target"):
            written = (Path(td) / entries[f"file.{side}"]).read_bytes()
            assert entries[f"sha256.{side}"] == hashlib.sha256(written).hexdigest()


def uncached(corpus):
    """The corpus rebuilt from tuples of its built lines, so no fact of its columns is known."""
    return Corpus(tuple(corpus.sources), tuple(corpus.targets), tuple(corpus.origins))


@pytest.mark.parametrize("recipe_name", RECIPES)
@FEW
@given(spaced_pools(min_size=6, max_size=18), st.booleans(), st.integers(0, 2**32 - 1), ODD_TOKENS)
def test_carried_manifest_equals_a_fresh_one(recipe_name, pool, shuffled, seed, other_sep):
    # the vanilla+bt pseudo sources hold separators that the manifest must count;
    # a concat pool may hold none, so the other recipes translate with a mock
    backward = SEP_EMITTER_SPEC if recipe_name == "vanilla+bt" else mock_spec("reverse", Direction.BACKWARD)
    translators = {Direction.FORWARD: mock_spec("reverse", Direction.FORWARD), Direction.BACKWARD: backward}
    recipe = MixRecipe(recipe_name, len(pool), seed=seed, shuffle_output=shuffled)
    mixed = build_mix(recipe, pool, translators, AugmentConfig(seed=seed, min_concat_len=0))
    fresh = uncached(mixed)
    assert mix_manifest(mixed) == mix_manifest(fresh)
    # a write counting another separator token recounts instead of reading the carried manifest
    with tempfile.TemporaryDirectory() as td:
        entries = read_sidecar(write_mix(mixed, td, sep_token=other_sep))
    assert entries["pairs.with_separator"] == str(mix_manifest(fresh, other_sep).with_separator)
    assert mix_manifest(mixed, other_sep) == mix_manifest(fresh, other_sep)
    assert mix_manifest(mixed) == mix_manifest(fresh)


@SETTINGS
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=30))))
@example((5, []))
@example((5, [3]))
@example((5, [2, 2, 0, 2]))
def test_take_picks_every_row_in_order(case):
    n, rows = case
    corpus = numbered(n)
    corpus.token_counts(Side.SOURCE)
    part = corpus.take(rows, "rows", {})
    assert rows_of(part) == rows
    assert part.targets == tuple(f"t{i}" for i in rows)
    assert part.origins == (Origin.ORIGINAL,) * len(rows)
    assert_counts_exact(part, [Side.SOURCE])


@SETTINGS
@given(spaced_pools(), st.sampled_from(Side))
def test_cached_counts_are_read_only(pool, side):
    counts = pool.token_counts(side)
    with pytest.raises(ValueError):
        counts[0] = 99
    assert pool.token_counts(side) is counts
    assert counts.tolist() == split_counts(pool.column(side))


# --- lines built when read ----------------------------------------------------

CHUNK = 4  # the patched chunk size; part sizes fall below, at and above it
part_sizes = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])


@st.composite
def line_parts(draw):
    """1-4 parts of a _Lines view, plain columns and joined pools, with the eager tuple of their lines."""
    parts, eager = [], []
    for k in range(draw(st.integers(1, 4))):
        n = draw(part_sizes)
        if draw(st.booleans()):
            lines = tuple(f"p{k}.{i}" for i in range(n))
            parts.append(lines)
            eager.extend(lines)
        else:
            pool = tuple(draw(st.lists(pool_lines, min_size=1, max_size=6)))
            rows = st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)
            first, second = draw(rows), draw(rows)
            parts.append(_Joined(_Lines([pool]), np.array(first, np.intp), np.array(second, np.intp), "<sep>"))
            # the construction concat used when it joined every line up front
            eager.extend(" <sep> ".join((pool[a], pool[b])) for a, b in zip(first, second))
    return parts, tuple(eager)


@st.composite
def line_views(draw):
    """A _Lines view, with or without a permutation, and the tuple of the lines it describes."""
    parts, eager = draw(line_parts())
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(eager))))
        return _Lines(parts, np.array(order, np.intp)), tuple(eager[i] for i in order)
    return _Lines(parts), eager


@SETTINGS
@given(line_views(), st.data())
def test_line_view_reads_like_the_eager_tuple(case, data):
    view, expected = case
    with mock.patch.object(corpus_module, "_WRITE_CHUNK_LINES", CHUNK):
        assert len(view) == len(expected)
        assert tuple(view) == expected
        assert [line for line in view] == list(expected)
        assert view == expected and expected == view and not view != expected
        assert view == _Lines([view])
        for i in range(-len(expected), len(expected)):
            assert view[i] == expected[i]
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                view[i]
        for _ in range(3):
            cut = data.draw(st.slices(len(expected) + 2))
            assert view[cut] == expected[cut]
        rows = data.draw(st.lists(st.integers(-len(expected), len(expected) - 1), max_size=9)) if expected else []
        assert view.take(np.array(rows, np.intp)) == tuple(expected[i] for i in rows)
        if expected:
            assert view != expected[:-1] and view != expected[:-1] + ("other",)
            assert view != list(expected)  # a tuple never equals a list either


@SETTINGS
@given(line_views(), line_views())
def test_save_parallel_writes_a_view_like_its_tuple(sources, targets):
    (view, expected), (other_view, other_expected) = sources, targets
    n = min(len(view), len(other_view))
    rows = np.arange(n)
    lazy = Corpus(view.take(rows), other_view.take(rows), [Origin.CONCAT] * n)
    eager = Corpus(expected[:n], other_expected[:n], [Origin.CONCAT] * n)
    assert lazy == eager and eager == lazy
    with tempfile.TemporaryDirectory() as td, mock.patch.object(corpus_module, "_WRITE_CHUNK_LINES", CHUNK):
        written = []
        for name, corpus in (("lazy", lazy), ("eager", eager)):
            paths = Path(td) / f"{name}.src", Path(td) / f"{name}.tgt"
            digests = save_parallel(corpus, *paths)
            written.append((digests, tuple(path.read_bytes() for path in paths)))
    assert written[0] == written[1]
    assert written[0][0] == tuple(hashlib.sha256(data).hexdigest() for data in written[0][1])


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


@st.composite
def joined(draw, token_lists_):
    """One line per token list, each token after a gap drawn from spacing (U+3000, NBSP, ...)."""
    gaps = draw(st.lists(spacing, min_size=1, max_size=4))
    return [
        "".join(gaps[(i + k) % len(gaps)] + token for k, token in enumerate(tokens))
        for i, tokens in enumerate(token_lists_)
    ]


def linear_bucket(spec, length):
    """Index of the first bucket whose bound is at least length, else None."""
    for i, bound in enumerate(spec.bounds):
        if length <= bound:
            return i
    return None


@SETTINGS
@given(scoring_sets(), st.integers(1, 5), st.booleans(), st.data())
def test_corpus_bleu_matches_oracle(data, n_order, smooth, lines):
    hyps, refs, _ = data
    hyp_lines, ref_lines = lines.draw(joined(hyps)), lines.draw(joined(refs))
    got = corpus_bleu(hyp_lines, ref_lines, n_order=n_order, smooth=smooth).overall
    assert math.isclose(got, oracle_bleu(hyps, refs, n_order, smooth), rel_tol=0, abs_tol=1e-9)


@SETTINGS
@given(scoring_sets(), bucket_specs(), st.integers(1, 5), st.booleans(), st.data())
def test_bucketed_bleu_matches_oracle_per_bucket(data, spec, n_order, smooth, lines):
    hyps, refs, srcs = data
    members = [[] for _ in spec.labels]
    for i, src in enumerate(srcs):
        b = linear_bucket(spec, len(src))
        if b is not None:
            members[b].append(i)
    covered = [i for m in members for i in m]
    assume(covered)
    hyp_lines, ref_lines, src_lines = (lines.draw(joined(side)) for side in data)
    report = bucketed_bleu(hyp_lines, ref_lines, src_lines, spec, n_order, smooth)
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
@given(bucket_specs(), st.lists(st.integers(1, 300), max_size=40))
def test_bucket_assign_equals_index_of(spec, lengths):
    # every bound and the length just past it, where an off-by-one would show
    finite = [int(b) for b in spec.bounds if b != math.inf]
    lengths = lengths + finite + [b + 1 for b in finite]
    out_of_range = len(spec.labels)
    expected = [out_of_range if spec.index_of(n) is None else spec.index_of(n) for n in lengths]
    assert spec.assign(np.array(lengths, np.int32)).tolist() == expected


@SETTINGS
@given(scoring_sets(max_size=40), st.integers(1, 5), st.booleans(), st.data())
def test_reports_do_not_depend_on_the_shard_count(data, n_order, smooth, lines):
    hyps, refs, srcs = (lines.draw(joined(side)) for side in data)
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


@st.composite
def decodes(draw, refs):
    """One decode per reference token list: the references, all empty, or drawn line by line."""
    kind = draw(st.sampled_from(["identical", "empty", "distinct"]))
    if kind == "identical":
        return list(refs)
    if kind == "empty":
        return [[] for _ in refs]
    return [
        draw(st.one_of(st.just(ref), st.permutations(ref), token_lists(0), st.lists(words, unique=True)))
        for ref in refs
    ]


@SETTINGS
@given(scoring_sets(), bucket_specs(), st.integers(1, 5), st.booleans(), st.data())
def test_scoring_runs_together_equals_scoring_each_alone(data, spec, n_order, smooth, more):
    _, refs, srcs = data
    covered = [i for i, src in enumerate(srcs) if linear_bucket(spec, len(src)) is not None]
    assume(covered)
    n_runs = more.draw(st.integers(1, 4))
    runs = [more.draw(joined(more.draw(decodes(refs)))) for _ in range(n_runs)]
    refs, srcs = more.draw(joined(refs)), more.draw(joined(srcs))
    chars = sum(len(run[i]) for run in runs for i in covered)  # excluded items are not scored
    assume(chars >= 3 * 4)  # chars // (chars // w) == w for w <= 3
    for w in (1, 2, 3):
        with forced_shards(3, chars // w) as forked:
            together = bucketed_bleu_runs(runs, refs, srcs, spec, n_order, smooth)
            assert len(forked) == w - 1
            alone = [bucketed_bleu(hyps, refs, srcs, spec, n_order, smooth) for hyps in runs]
        assert together == alone
        assert [report_to_csv(r) for r in together] == [report_to_csv(r) for r in alone]


# a vocabulary large enough that references drawn from it repeat no token,
# so the kernel's repeat-free tier counts them, also against hypotheses that
# repeat tokens (the six-word sets above seldom reach that tier)
rare_words = st.integers(0, 10_000).map(lambda i: f"w{i}")


def repeating_hypotheses(ref):
    """Token lists likely to repeat a token: draws from the reference and two strays, or a stretch of it repeated."""
    pool = ref + ["x", "y"]
    stretches = st.tuples(st.integers(0, len(ref)), st.integers(0, len(ref)), st.integers(1, 3))
    return st.one_of(
        st.lists(st.sampled_from(pool), max_size=16),
        stretches.map(lambda t: ref[t[0] : t[1]] * t[2]),
    )


@st.composite
def runs_sharing_lines(draw, max_size=20):
    """(runs, references): references that repeat no token, and K = 1-4 runs that share some lines."""
    n = draw(st.integers(1, max_size))
    refs = draw(st.lists(st.lists(rare_words, unique=True, max_size=12), min_size=n, max_size=n))
    runs: list[list[list[str]]] = []
    for _ in range(draw(st.integers(1, 4))):
        run = []
        for i, ref in enumerate(refs):
            kind = draw(st.sampled_from(["equal", "empty", "shared", "drawn"]))
            if kind == "equal":
                run.append(ref)
            elif kind == "empty":
                run.append([])
            elif kind == "shared" and runs:
                run.append(runs[draw(st.integers(0, len(runs) - 1))][i])
            else:
                run.append(draw(repeating_hypotheses(ref)))
        runs.append(run)
    return runs, refs


@SETTINGS
@given(runs_sharing_lines(), st.integers(1, 40))
def test_kernel_counts_repeat_free_references_like_the_oracle(data, block_slots):
    runs, refs = data
    runs = [[" ".join(tokens) for tokens in run] for run in runs]
    refs = [" ".join(tokens) for tokens in refs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BLOCK_SLOTS", block_slots)  # items counted over several blocks
        for n_order in range(1, 7):
            got = metrics._ngram_stats(runs, refs, n_order)
            assert got.tolist() == oracle_rows(runs, refs, n_order), f"order {n_order}"
