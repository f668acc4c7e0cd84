"""Seeded input generator for the benchmark workloads.

Every file is a function of the seed alone. Sentences are runs of
fixed-width tokens ``w00000``..``w99999``; within one sentence no token
repeats, so the only repeated n-grams in a hypothesis are the ones this
module puts there on purpose. References are the sources with a share of
tokens substituted: with identity decoding BLEU then lands near 65 and all
four n-gram orders do real matching work (independent random sides would
score near 0 and the scorer would stop at order 1).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

VOCAB = 100_000
MAX_LEN = 200
# Tokens of one sentence are a start id plus a running sum of steps in
# [1, MAX_STEP]; MAX_LEN * MAX_STEP < VOCAB keeps them distinct mod VOCAB.
MAX_STEP = (VOCAB - 1) // MAX_LEN
SUBSTITUTE_SHARE = 0.15
# Share of hypotheses (length >= 4) whose last two tokens repeat their first
# two, so the scorer's counted-clipping fallback runs on a known fraction.
REPEAT_SHARE = 0.10


class Sentences:
    """Token ids of a batch of sentences, stored flat with per-sentence lengths."""

    def __init__(self, ids: np.ndarray, lengths: np.ndarray):
        self.ids = ids
        self.lengths = lengths
        self.starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    def __len__(self) -> int:
        return len(self.lengths)

    def write(self, path: Path) -> None:
        """Write one sentence per line, tokens joined by single spaces."""
        digits = np.empty((len(self.ids), 7), dtype=np.uint8)
        digits[:, 0] = ord("w")
        rest = self.ids
        for col in range(5, 0, -1):
            digits[:, col] = rest % 10 + ord("0")
            rest = rest // 10
        digits[:, 6] = ord(" ")
        digits[self.starts + self.lengths - 1, 6] = ord("\n")
        path.write_bytes(digits.tobytes())

    def substituted(self, rng: np.random.Generator, share: float = SUBSTITUTE_SHARE) -> "Sentences":
        """Copy with about ``share`` of all tokens replaced by random ones."""
        ids = self.ids.copy()
        mask = rng.random(len(ids)) < share
        ids[mask] = rng.integers(0, VOCAB, size=int(mask.sum()))
        return Sentences(ids, self.lengths)

    def with_repeats(self, rng: np.random.Generator, share: float = REPEAT_SHARE) -> "Sentences":
        """Copy in which a ``share`` of sentences end by repeating their first bigram."""
        ids = self.ids.copy()
        chosen = (rng.random(len(self)) < share) & (self.lengths >= 4)
        starts = self.starts[chosen]
        ends = starts + self.lengths[chosen]
        ids[ends - 2] = ids[starts]
        ids[ends - 1] = ids[starts + 1]
        return Sentences(ids, self.lengths)


def sentences(rng: np.random.Generator, lengths: np.ndarray) -> Sentences:
    """Random sentences of the given lengths, no token repeated within one."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.min() < 1 or lengths.max() > MAX_LEN:
        raise ValueError(f"sentence lengths must lie in 1..{MAX_LEN}")
    steps = rng.integers(1, MAX_STEP + 1, size=int(lengths.sum()))
    running = np.cumsum(steps)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    before = np.repeat(running[starts] - steps[starts], lengths)
    offset = np.repeat(rng.integers(0, VOCAB, size=len(lengths)), lengths)
    return Sentences((offset + running - before) % VOCAB, lengths)


def uniform_lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` lengths drawn uniformly from ``lo..hi`` inclusive."""
    return rng.integers(lo, hi + 1, size=n)


def long_tail_lengths(rng: np.random.Generator, n: int, tail_share: float = 0.3) -> np.ndarray:
    """Lengths 1..70 uniformly, except a ``tail_share`` drawn from 71..MAX_LEN.

    Fills every bucket of the extended spec, 71-100 and 101-200 included,
    and stays within its last bound so no item is excluded from scoring.
    """
    short = rng.integers(1, 71, size=n)
    long = rng.integers(71, MAX_LEN + 1, size=n)
    return np.where(rng.random(n) < tail_share, long, short)


def write_parallel(rng: np.random.Generator, lengths: np.ndarray, src: Path, tgt: Path) -> None:
    """A bitext whose targets are the sources with a share of tokens substituted."""
    source = sentences(rng, lengths)
    source.write(src)
    source.substituted(rng).write(tgt)


def write_scoring_set(
    rng: np.random.Generator, lengths: np.ndarray, src: Path, ref: Path, hyp: Path | None = None
) -> None:
    """Sources with repeats, references substituted from them, identity hypotheses."""
    source = sentences(rng, lengths).with_repeats(rng)
    source.write(src)
    source.substituted(rng).write(ref)
    if hyp is not None:
        source.write(hyp)
