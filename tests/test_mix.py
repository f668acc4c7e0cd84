import hashlib
import sys
import tracemalloc

import pytest

from bitextaug.augment import AugmentConfig, concat_augment
from bitextaug.corpus import Corpus, Origin, load_parallel, read_sidecar, rows_with_token
from bitextaug.errors import ValidationError
from bitextaug.mix import MixRecipe, build_mix, mix_manifest, write_mix
from bitextaug.translate import Direction, back_translate, mock_spec

from conftest import make_corpus


def translators():
    return {
        Direction.FORWARD: mock_spec("identity", Direction.FORWARD),
        Direction.BACKWARD: mock_spec("identity", Direction.BACKWARD),
    }


def augment_cfg(seed=1, min_len=25):
    return AugmentConfig(seed=seed, min_concat_len=min_len)


class TestRecipeSizes:
    @pytest.mark.parametrize(
        "name,factor",
        [
            ("vanilla", 1),
            ("vanilla+concat", 2),
            ("vanilla+st", 2),
            ("vanilla+bt", 2),
            ("vanilla+bt+concat", 4),
        ],
    )
    def test_size_law(self, name, factor):
        n = 50
        original = make_corpus(n, seed=2, min_len=13, max_len=22)
        recipe = MixRecipe(name, base_size=n, seed=9)
        mixed = build_mix(recipe, original, translators=translators(), augment=augment_cfg())
        assert len(mixed) == factor * n
        assert recipe.total_size == factor * n

    def test_vanilla_identity(self):
        original = make_corpus(10, seed=3)
        recipe = MixRecipe("vanilla", base_size=10, seed=0, shuffle_output=False)
        mixed = build_mix(recipe, original)
        assert mixed == original

    def test_component_breakdown_of_full_mix(self):
        n = 100
        original = make_corpus(n, seed=4, min_len=13, max_len=22)
        recipe = MixRecipe("vanilla+bt+concat", base_size=n, seed=5)
        mixed = build_mix(recipe, original, translators=translators(), augment=augment_cfg())
        manifest = mix_manifest(mixed)
        assert manifest.per_origin == {"original": n, "pseudo_bt": n, "concat": 2 * n}
        assert manifest.with_separator == 2 * n
        assert manifest.total == 4 * n


class TestMixRules:
    def test_base_size_must_match(self):
        original = make_corpus(10, seed=1)
        with pytest.raises(ValidationError, match="base_size"):
            build_mix(MixRecipe("vanilla", base_size=20, seed=0), original)

    def test_missing_translator(self):
        original = make_corpus(10, seed=1)
        with pytest.raises(ValidationError, match="backward translator"):
            build_mix(MixRecipe("vanilla+bt", base_size=10, seed=0), original)
        with pytest.raises(ValidationError, match="forward translator"):
            build_mix(MixRecipe("vanilla+st", base_size=10, seed=0), original)

    def test_missing_augment_config(self):
        original = make_corpus(10, seed=1)
        with pytest.raises(ValidationError, match="augment config"):
            build_mix(MixRecipe("vanilla+concat", base_size=10, seed=0), original)

    def test_unknown_recipe(self):
        with pytest.raises(ValidationError, match="unknown recipe"):
            MixRecipe("vanilla+magic", base_size=10).validate()

    def test_concat_halves_never_cross_pools(self):
        # every concatenated pair decomposes into two sentences from
        # exactly one pool: both original or both pseudo, never mixed
        n = 60
        original = make_corpus(n, seed=6, min_len=13, max_len=20)
        recipe = MixRecipe("vanilla+bt+concat", base_size=n, seed=7)
        mixed = build_mix(recipe, original, translators=translators(), augment=augment_cfg())
        original_sources = {p.source for p in original}
        # identity backward mock: pseudo sources are the original targets
        pseudo_sources = {p.target for p in original}
        for p in mixed:
            if p.origin is not Origin.CONCAT:
                continue
            first, second = p.source.split(" <sep> ")
            from_original = first in original_sources and second in original_sources
            from_pseudo = first in pseudo_sources and second in pseudo_sources
            assert from_original or from_pseudo

    def test_deterministic(self):
        n = 40
        original = make_corpus(n, seed=8, min_len=13, max_len=20)
        recipe = MixRecipe("vanilla+bt+concat", base_size=n, seed=11)
        a = build_mix(recipe, original, translators=translators(), augment=augment_cfg())
        b = build_mix(recipe, original, translators=translators(), augment=augment_cfg())
        assert a == b

    def test_shuffle_seed_controls_order(self):
        n = 30
        original = make_corpus(n, seed=9, min_len=13, max_len=20)
        base = dict(translators=translators(), augment=augment_cfg())
        a = build_mix(MixRecipe("vanilla+concat", n, seed=1, shuffle_seed=100), original, **base)
        b = build_mix(MixRecipe("vanilla+concat", n, seed=1, shuffle_seed=100), original, **base)
        c = build_mix(MixRecipe("vanilla+concat", n, seed=1, shuffle_seed=200), original, **base)
        assert a == b
        assert a != c
        # same pairs, different order
        assert sorted(p.source for p in a) == sorted(p.source for p in c)

    def test_unshuffled_keeps_component_order(self):
        n = 20
        original = make_corpus(n, seed=10, min_len=13, max_len=20)
        mixed = build_mix(
            MixRecipe("vanilla+concat", n, seed=1, shuffle_output=False),
            original,
            augment=augment_cfg(),
        )
        origins = [p.origin for p in mixed]
        assert origins[:n] == [Origin.ORIGINAL] * n
        assert origins[n:] == [Origin.CONCAT] * n

    def test_build_mix_does_not_build_the_concat_lines(self):
        # the concat lines are built while they are written, so assembling
        # the mix allocates far less than the joined text it describes
        n = 20_000
        original = make_corpus(n, seed=17, min_len=13, max_len=22)
        tracemalloc.start()
        try:
            mixed = build_mix(MixRecipe("vanilla+concat", n, seed=4), original, augment=augment_cfg())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        concat_text = sum(
            len(line.encode())
            for p in mixed
            if p.origin is Origin.CONCAT
            for line in (p.source, p.target)
        )
        assert peak < concat_text / 4


class TestWriteMix:
    def test_manifest_contents_and_reload(self, tmp_path):
        n = 30
        original = make_corpus(n, seed=12, min_len=13, max_len=20)
        mixed = build_mix(
            MixRecipe("vanilla+bt", n, seed=3),
            original,
            translators=translators(),
        )
        manifest_path = write_mix(mixed, tmp_path / "mixdir")
        entries = read_sidecar(manifest_path)
        assert entries["pairs.total"] == str(2 * n)
        assert entries["pairs.original"] == str(n)
        assert entries["pairs.pseudo_bt"] == str(n)
        assert entries["pairs.with_separator"] == "0"
        assert entries["meta.prng"] == "numpy-pcg64"
        assert len(entries["sha256.source"]) == 64
        reloaded = load_parallel(tmp_path / "mixdir" / "train.src", tmp_path / "mixdir" / "train.tgt")
        assert [p.source for p in reloaded] == [p.source for p in mixed]

    @pytest.mark.parametrize("source_lang,target_lang", [("en", "en"), ("manifest", "de"), ("en", "manifest")])
    def test_clashing_paths_raise_before_writing(self, tmp_path, source_lang, target_lang):
        original = make_corpus(10, seed=12)
        corpus = Corpus(
            original.sources, original.targets, original.origins,
            source_lang=source_lang, target_lang=target_lang,
        )
        with pytest.raises(ValidationError, match="one file"):
            write_mix(corpus, tmp_path / "mixdir")
        assert not (tmp_path / "mixdir").exists()

    def test_mean_lengths_match_brute_force(self, tmp_path):
        n = 30
        original = make_corpus(n, seed=14, min_len=13, max_len=20)
        mixed = build_mix(
            MixRecipe("vanilla+concat", n, seed=3),
            original,
            augment=augment_cfg(),
        )
        manifest = mix_manifest(mixed)
        for origin, mean in manifest.mean_source_len.items():
            lens = [
                len(p.source.split())
                for p in mixed
                if p.origin.value == origin
            ]
            assert mean == pytest.approx(sum(lens) / len(lens), abs=1e-12)

    @pytest.mark.parametrize(
        "sep_token,expected",
        [("<sep>", 6), ("x<sep>y", 1), ("<sep> a", 0), ("", 0)],
    )
    def test_separator_count_is_by_whole_tokens(self, sep_token, expected):
        sources = [
            "<sep> a",  # at the line start
            "a <sep>",  # at the line end
            "a\t<sep>\tb",  # next to tabs
            "a\u3000<sep>",  # after an ideographic space
            "x<sep>y b",  # inside a longer token only
            "a <sep> b",
            "b <sep> a c",  # a token with a space can never match
            "a b",
        ]
        corpus = Corpus(sources, sources, [Origin.PSEUDO_BT] * len(sources))
        assert mix_manifest(corpus, sep_token).with_separator == expected

    def test_manifest_carries_concat_counters_of_both_pools(self, tmp_path):
        n = 40
        original = make_corpus(n, seed=15, min_len=3, max_len=20)
        recipe = MixRecipe("vanilla+bt+concat", n, seed=6)
        paths = [
            write_mix(
                build_mix(recipe, original, translators=translators(), augment=augment_cfg()),
                tmp_path / run,
            )
            for run in ("a", "b")
        ]
        assert paths[0].read_bytes() == paths[1].read_bytes()
        entries = read_sidecar(paths[0])
        pseudo = back_translate(original, translators()[Direction.BACKWARD])
        for origin, pool, seed in (("original", original, 6), ("pseudo_bt", pseudo, 7)):
            meta = concat_augment(pool, augment_cfg(seed=seed)._replace(target_count=n)).meta
            assert int(meta["rejected_short"]) > 0
            for counter in ("draws", "rejected_short", "rejected_self"):
                assert entries[f"meta.concat.{origin}.{counter}"] == meta[counter]
        assert sum(key.startswith("meta.concat.") for key in entries) == 6

    def test_separator_scans_skip_what_concat_rules_out(self, tmp_path, monkeypatch):
        # concat scans each pool side once; its own lines and the pool's
        # sources are not scanned again for the manifest
        scanned = []

        def counting(lines, token):
            scanned.append(tuple(lines))
            return rows_with_token(lines, token)

        for name, module in list(sys.modules.items()):
            if name.startswith("bitextaug") and getattr(module, "rows_with_token", None) is rows_with_token:
                monkeypatch.setattr(module, "rows_with_token", counting)
        n = 30
        original = make_corpus(n, seed=16, min_len=13, max_len=20)
        mixed = build_mix(MixRecipe("vanilla+concat", n, seed=3), original, augment=augment_cfg())
        entries = read_sidecar(write_mix(mixed, tmp_path / "mixdir"))
        assert entries["pairs.with_separator"] == str(n)
        assert scanned == [original.sources, original.targets]


# The first 16 hex digits of the sha256 of train.src, train.tgt and
# train.manifest for each (recipe, mock translator, shuffled) case below,
# recorded before the mix assembly was last reworked: a change that alters
# any written byte must show up here, not only as a difference between two
# runs of the same code.
PINNED_DIGESTS = {
    ('vanilla', None, True): ('143527226e9c4553', '516acb83a675bcf5', '7b97362f31c93124'),
    ('vanilla', None, False): ('f5d17843d58bef49', 'e9d13d43f1bd3686', '469495399e829933'),
    ('vanilla+concat', None, True): ('5c7da07d3e81266d', '35708a0f778cc81c', '35c566fd14c544cd'),
    ('vanilla+concat', None, False): ('fc0a54514c8e7dbe', 'a46d45ce171403ac', '39b0736e85065e32'),
    ('vanilla+st', 'identity', True): ('3baa78b77a533d46', '8b6091bcf5ed760b', 'f809669e8b7a9b5d'),
    ('vanilla+st', 'identity', False): ('27b7a8f4e2ea0f13', '0862d71797836b72', 'fb9562738c648a54'),
    ('vanilla+st', 'reverse', True): ('3baa78b77a533d46', '26bdf9b7306715e8', '0a385c152c6cfdca'),
    ('vanilla+st', 'reverse', False): ('27b7a8f4e2ea0f13', 'fdd4c404b8664443', '521608382541e860'),
    ('vanilla+bt', 'identity', True): ('e552bbe5b6e2b20d', '8fa1e3ebf30e94fa', '789996c0bf440876'),
    ('vanilla+bt', 'identity', False): ('134fcc292a395147', '82d92f1e562e0216', '17b66032e2f76e05'),
    ('vanilla+bt', 'reverse', True): ('4cca85b79fea1a97', '8fa1e3ebf30e94fa', '9c9e73206e4a6db8'),
    ('vanilla+bt', 'reverse', False): ('a1663eecfc4cabe6', '82d92f1e562e0216', '2f1b5105863c0392'),
    ('vanilla+bt+concat', 'identity', True): ('5c92c112bdd002bf', 'a43735f391c32c48', '1567790c83b2c687'),
    ('vanilla+bt+concat', 'identity', False): ('bf0aa02224e94bc1', 'c816c9116228d829', '261cca941183ea3b'),
    ('vanilla+bt+concat', 'reverse', True): ('5d31ddf5cf6e7fac', 'a43735f391c32c48', '383e738518668013'),
    ('vanilla+bt+concat', 'reverse', False): ('ff735144c705f79e', 'c816c9116228d829', 'b9848d93b0df9e63'),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("recipe,mock,shuffled", sorted(PINNED_DIGESTS, key=str))
    def test_mix_files_match_pinned_digests(self, tmp_path, recipe, mock, shuffled):
        original = make_corpus(24, seed=31, min_len=8, max_len=20)
        specs = {d: mock_spec(mock, d) for d in Direction} if mock else None
        mixed = build_mix(
            MixRecipe(recipe, 24, seed=5, shuffle_output=shuffled),
            original,
            translators=specs,
            augment=AugmentConfig(seed=0, min_concat_len=25),
        )
        write_mix(mixed, tmp_path)
        digests = tuple(
            hashlib.sha256((tmp_path / f"train.{ext}").read_bytes()).hexdigest()[:16]
            for ext in ("src", "tgt", "manifest")
        )
        assert digests == PINNED_DIGESTS[recipe, mock, shuffled]
