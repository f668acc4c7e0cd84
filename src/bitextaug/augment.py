"""Synthetic long-sentence generation by pairwise sentence concatenation.

Two pairs are drawn uniformly at random from a single-origin pool, their
sources are joined with a reserved separator token, their targets are
joined the same way, and the result is kept only if the concatenation
reaches a minimum word length. Draws are independent ordered pairs with
distinct indices, so the two halves never come from the same pool row and
(a, b) and (b, a) are distinct outcomes. Rejection sampling continues
until the requested number of outputs survives the length filter.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .corpus import PRNG_ID, Corpus, Origin, SentencePair, Side, _Joined, _Lines, tokenize
from .errors import AugmentationError, ValidationError

DEFAULT_SEP_TOKEN = "<sep>"
DEFAULT_MIN_CONCAT_LEN = 25


class AugmentConfig(NamedTuple):
    """Parameters for concatenation augmentation.

    count_sep_in_length controls whether the separator token itself counts
    toward the minimum-length filter; the default excludes it because the
    threshold is about linguistic content.
    """

    seed: int
    sep_token: str = DEFAULT_SEP_TOKEN
    min_concat_len: int = DEFAULT_MIN_CONCAT_LEN
    target_count: int = 0
    length_side: Side = Side.SOURCE
    count_sep_in_length: bool = False
    max_attempts_factor: int = 100

    def validate(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if tokenize(self.sep_token) != [self.sep_token]:
            raise ValidationError(
                f"sep_token must be a single whitespace-free token, got {self.sep_token!r}"
            )
        if self.min_concat_len < 0:
            raise ValidationError(f"min_concat_len must be >= 0, got {self.min_concat_len}")
        if self.target_count < 0:
            raise ValidationError(f"target_count must be >= 0, got {self.target_count}")
        if self.max_attempts_factor < 1:
            raise ValidationError(
                f"max_attempts_factor must be >= 1, got {self.max_attempts_factor}"
            )


def concat_pair(a: SentencePair, b: SentencePair, sep: str = DEFAULT_SEP_TOKEN) -> SentencePair:
    """Concatenate two pairs source-with-source and target-with-target.

    Neither input may already be a concatenation or contain the separator.
    """
    for label, p in (("first", a), ("second", b)):
        if p.origin is Origin.CONCAT:
            raise ValidationError(f"concat_pair: {label} input is already concatenated")
        if sep in tokenize(p.source) or sep in tokenize(p.target):
            raise ValidationError(f"concat_pair: {label} input contains the separator token {sep!r}")
    return SentencePair(_Joined.join(a.source, b.source, sep), _Joined.join(a.target, b.target, sep), Origin.CONCAT)


def _check_pool_origin(pool: Corpus) -> None:
    codes = pool.origins.codes()
    if (codes != codes[0]).any():
        names = sorted({o.value for o in pool.origins})
        raise ValidationError(
            f"concat pool must be homogeneous in origin, found {names}; "
            "concatenate original and pseudo pools separately"
        )
    if pool.origins[0] is Origin.CONCAT:
        raise ValidationError("concat pool must not itself be concatenated")


def concat_augment(pool: Corpus, config: AugmentConfig) -> Corpus:
    """Generate config.target_count concatenated pairs from a pool.

    The pool must hold at least two pairs, all with the same
    non-concatenated origin and none containing the separator token. The
    output length (measured on config.length_side, separator excluded
    unless count_sep_in_length) is at least config.min_concat_len for
    every surviving pair. Deterministic for fixed (pool, config). The
    output keeps the kept (first, second) pool rows and joins their lines
    only when they are read or written.

    Raises AugmentationError when the threshold is unreachable or the
    draw budget (max_attempts_factor * target_count) runs out.
    """
    config.validate()
    sep = config.sep_token
    if len(pool) < 2:
        raise ValidationError(f"concat pool needs at least 2 pairs, got {len(pool)}")
    _check_pool_origin(pool)
    n = len(pool)
    for side in Side:
        holding = np.flatnonzero(pool.column(side).token_counts(sep))
        if len(holding):
            raise ValidationError(
                f"pool pair {holding[0]} contains the reserved separator token {sep!r}"
            )

    lens = pool.token_counts(config.length_side)
    sep_add = 1 if config.count_sep_in_length else 0
    top_two = int(np.partition(lens, -2)[-2:].sum()) + sep_add
    if config.target_count > 0 and top_two < config.min_concat_len:
        raise AugmentationError(
            f"length threshold unreachable: max concatenated length {top_two} "
            f"< min_concat_len {config.min_concat_len}"
        )

    rng = np.random.default_rng(config.seed)
    budget = config.max_attempts_factor * config.target_count
    # the counters cover the draws up to the last kept one, so
    # kept = draws - rejected_short - rejected_self
    draws = rejected_self = rejected_short = 0
    # pool rows of the first and second half of each kept pair
    first = np.empty(config.target_count, np.intp)
    second = np.empty(config.target_count, np.intp)
    done = 0
    while done < config.target_count:
        need = config.target_count - done
        batch = min(max(4096, 2 * need), 1 << 17, budget - draws)
        if batch <= 0:
            raise AugmentationError(
                f"could not reach target_count={config.target_count} within "
                f"{budget} draws ({rejected_short} rejected below "
                f"min_concat_len={config.min_concat_len}, {rejected_self} self-pairs); "
                "the pool sentences are too short for the threshold"
            )
        ij = rng.integers(0, n, size=(batch, 2))
        i, j = ij[:, 0], ij[:, 1]
        distinct = i != j
        long_enough = lens[i] + lens[j] + sep_add >= config.min_concat_len
        kept = np.flatnonzero(distinct & long_enough)
        if len(kept) >= need:
            kept = kept[:need]
            used = int(kept[-1]) + 1
            distinct, long_enough = distinct[:used], long_enough[:used]
        else:
            used = batch
        draws += used
        rejected_self += used - int(distinct.sum())
        rejected_short += int((distinct & ~long_enough).sum())
        first[done : done + len(kept)] = i[kept]
        second[done : done + len(kept)] = j[kept]
        done += len(kept)

    meta = {
        "augment": "concat",
        "pool": pool.name,
        "seed": str(config.seed),
        "prng": PRNG_ID,
        "sep_token": sep,
        "min_concat_len": str(config.min_concat_len),
        "target_count": str(config.target_count),
        "length_side": config.length_side.value,
        "count_sep_in_length": str(config.count_sep_in_length).lower(),
        "draws": str(draws),
        "rejected_short": str(rejected_short),
        "rejected_self": str(rejected_self),
    }
    # the lines are joined when they are read, one chunk at a time
    return Corpus(
        _Lines([_Joined(pool.sources, first, second, sep)]),
        _Lines([_Joined(pool.targets, first, second, sep)]),
        (Origin.CONCAT,) * config.target_count,
        f"{pool.name}+concat",
        pool.source_lang,
        pool.target_lang,
        meta,
    )


def measure_concat_mean(corpus: Corpus, config: Optional[AugmentConfig] = None) -> float:
    """Mean token count over the corpus, separator handling per config.

    With count_sep_in_length False (the default) every occurrence of the
    separator token is excluded from the count, however many a sentence holds.
    """
    if len(corpus) == 0:
        raise ValidationError("measure_concat_mean: empty corpus")
    cfg = config or AugmentConfig(seed=0)
    lines = corpus.column(cfg.length_side)
    total = int(lines.token_counts().sum(dtype=np.int64))
    if not cfg.count_sep_in_length:
        total -= int(lines.token_counts(cfg.sep_token).sum(dtype=np.int64))
    return total / len(corpus)
