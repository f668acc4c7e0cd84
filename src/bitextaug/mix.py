"""Assembly of augmented training mixes with exact size accounting.

Five recipes over an original corpus of N pairs:

  vanilla            N   original only
  vanilla+concat    2N   original + N concatenations of the original pool
  vanilla+st        2N   original + N self-trained pseudo pairs
  vanilla+bt        2N   original + N back-translated pseudo pairs
  vanilla+bt+concat 4N   original + N back-translated + N concatenations
                         of the original pool + N of the pseudo pool

The 4N recipe concatenates within each pool separately; original and
pseudo sentences are never joined to each other. Sub-seeds derive from
the recipe seed by fixed offsets (concat-original: +0, concat-pseudo: +1,
shuffle: +2) so one seed reproduces the whole mix.

A mix holds no line of its own: its three columns are views over the
components' columns, concat lines still unjoined, taken through the
shuffle permutation. write_mix builds the lines one chunk at a time as it
writes them, and the manifest reads the origin codes, token counts and
separator counts that the columns compose from their components'.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .augment import AugmentConfig, concat_augment
from .corpus import PRNG_ID, Corpus, Origin, Side, _Lines, save_parallel, write_sidecar
from .errors import ValidationError
from .translate import Direction, TranslatorSpec, back_translate, self_train

PathLike = Union[str, Path]

# each recipe's parts: the translator of its pseudo pairs (None: no pseudo pairs),
# and how many of its first components it concatenates, each into N concat pairs
_RECIPE_PARTS: dict[str, tuple[Optional[Direction], int]] = {
    "vanilla": (None, 0),
    "vanilla+concat": (None, 1),
    "vanilla+st": (Direction.FORWARD, 0),
    "vanilla+bt": (Direction.BACKWARD, 0),
    "vanilla+bt+concat": (Direction.BACKWARD, 2),
}
RECIPES = tuple(_RECIPE_PARTS)


class MixRecipe(NamedTuple):
    name: str
    base_size: int
    seed: int = 0
    shuffle_output: bool = True
    shuffle_seed: Optional[int] = None  # defaults to seed + 2

    def validate(self) -> None:
        if self.name not in RECIPES:
            raise ValidationError(f"unknown recipe {self.name!r}, expected one of {RECIPES}")
        if self.base_size < 2:
            raise ValidationError(f"base_size must be >= 2, got {self.base_size}")
        for key, seed in (("seed", self.seed), ("shuffle_seed", self.shuffle_seed)):
            if seed is not None and seed < 0:
                raise ValidationError(f"{key} must be >= 0, got {seed}")

    @property
    def total_size(self) -> int:
        translator, pools = _RECIPE_PARTS[self.name]
        return (1 + (translator is not None) + pools) * self.base_size

    @property
    def derived_shuffle_seed(self) -> int:
        return self.seed + 2 if self.shuffle_seed is None else self.shuffle_seed


def build_mix(
    recipe: MixRecipe,
    original: Corpus,
    translators: Optional[dict[Direction, TranslatorSpec]] = None,
    augment: Optional[AugmentConfig] = None,
    workdir: Optional[PathLike] = None,
) -> Corpus:
    """Assemble the requested training mix from an original corpus.

    ``translators`` must carry Direction.BACKWARD for bt recipes and
    Direction.FORWARD for st; ``augment`` is required for concat recipes
    (its target_count is overridden to N per pool). Deterministic given
    the recipe seed, inputs, and translator behavior. Its columns are
    views over the components', built when read or written.
    """
    recipe.validate()
    translators = translators or {}
    if len(original) != recipe.base_size:
        raise ValidationError(
            f"recipe expects base_size={recipe.base_size} but corpus has {len(original)} pairs"
        )
    n = recipe.base_size
    components: list[Corpus] = [original]

    needed, pools = _RECIPE_PARTS[recipe.name]
    if needed is not None:
        spec = translators.get(needed)
        if spec is None:
            raise ValidationError(f"recipe {recipe.name!r} requires a {needed.value} translator")
        pseudo_pairs = back_translate if needed is Direction.BACKWARD else self_train
        components.append(pseudo_pairs(original, spec, workdir=workdir))

    # concat's draw and rejection counters, per pool, for the manifest
    concat_counters: dict[str, str] = {}
    if pools:
        if augment is None:
            raise ValidationError(f"recipe {recipe.name!r} requires an augment config")
        for seed_offset, pool in enumerate(components[:pools]):
            cfg = augment._replace(seed=recipe.seed + seed_offset, target_count=n)
            concat = concat_augment(pool, cfg)
            components.append(concat)
            for counter in ("draws", "rejected_short", "rejected_self"):
                concat_counters[f"concat.{pool.origins[0].value}.{counter}"] = concat.meta[counter]

    meta = {
        "recipe": recipe.name,
        "base_size": str(n),
        "seed": str(recipe.seed),
        "prng": PRNG_ID,
        "shuffled": str(recipe.shuffle_output).lower(),
        "components": ",".join(c.name for c in components),
    }
    if pools:
        meta.update(sep_token=augment.sep_token, min_concat_len=str(augment.min_concat_len))
    meta.update(concat_counters)
    order = None
    if recipe.shuffle_output:
        order = np.random.default_rng(recipe.derived_shuffle_seed).permutation(recipe.total_size)
    # the columns are views over the components', built through the shuffle when written
    return Corpus(
        _Lines([c.sources for c in components], order),
        _Lines([c.targets for c in components], order),
        _Lines([c.origins for c in components], order),
        f"{original.name}[{recipe.name}]",
        original.source_lang,
        original.target_lang,
        meta,
    )


class MixManifest(NamedTuple):
    total: int
    per_origin: dict[str, int]
    with_separator: int
    mean_source_len: dict[str, float]  # per origin, plain token count


def mix_manifest(corpus: Corpus, sep_token: str = "<sep>") -> MixManifest:
    """Per-origin counts, separator-containing pair count, and mean lengths.

    Each is read from the per-line facts of the corpus's columns, which a
    mix composes from its components' without building a line.
    """
    codes = corpus.origins.codes()
    lens = corpus.token_counts(Side.SOURCE)
    per_origin: dict[str, int] = {}
    mean_source_len: dict[str, float] = {}
    # one origin at a time, in int64: a weighted np.bincount would cast every count to a float
    for code, origin in enumerate(Origin):
        rows = codes == code
        count = int(np.count_nonzero(rows))
        if count:
            per_origin[origin.value] = count
            mean_source_len[origin.value] = int(lens[rows].sum(dtype=np.int64)) / count
    return MixManifest(
        total=len(codes),
        per_origin=per_origin,
        with_separator=corpus.token_rows(Side.SOURCE, sep_token),
        mean_source_len=mean_source_len,
    )


def write_mix(corpus: Corpus, out_dir: PathLike, sep_token: str = "<sep>") -> Path:
    """Write a mix as parallel files plus a key=value manifest.

    The manifest records per-origin counts, mean lengths, seeds and
    thresholds from the corpus metadata, and sha256 hashes of the written
    component files. Paths inside the manifest are relative so reruns
    into different directories stay byte-identical.
    """
    out_dir = Path(out_dir)
    src_path = out_dir / f"train.{corpus.source_lang}"
    tgt_path = out_dir / f"train.{corpus.target_lang}"
    manifest_path = out_dir / "train.manifest"
    if len({src_path, tgt_path, manifest_path}) < 3:
        raise ValidationError(
            f"language codes {corpus.source_lang!r} and {corpus.target_lang!r} would make "
            f"two of {src_path.name}, {tgt_path.name} and {manifest_path.name} one file"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    src_sha256, tgt_sha256 = save_parallel(corpus, src_path, tgt_path)
    manifest = mix_manifest(corpus, sep_token=sep_token)
    entries: dict[str, str] = {
        "name": corpus.name,
        "pairs.total": str(manifest.total),
        "pairs.with_separator": str(manifest.with_separator),
        "file.source": src_path.name,
        "file.target": tgt_path.name,
        "sha256.source": src_sha256,
        "sha256.target": tgt_sha256,
    }
    for origin, count in sorted(manifest.per_origin.items()):
        entries[f"pairs.{origin}"] = str(count)
        entries[f"mean_source_len.{origin}"] = repr(manifest.mean_source_len[origin])
    for key, value in corpus.meta.items():
        entries[f"meta.{key}"] = value
    write_sidecar(manifest_path, entries)
    return manifest_path
