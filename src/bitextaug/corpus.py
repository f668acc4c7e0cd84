"""Parallel-corpus data model, file ingestion, statistics, and sampling.

Corpora are line-aligned plain-text file pairs: UTF-8, LF line endings,
one sentence per line, equal line counts. In memory a corpus is an
immutable sequence of sentence pairs; a "word" is a whitespace-delimited
token and every length in this package counts those tokens.

All randomized operations use numpy's PCG64 generator so that a given
seed reproduces the same output on any platform. The generator id
("numpy-pcg64") is recorded in output metadata sidecars.
"""

from __future__ import annotations

import enum
import gc
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .buckets import BucketSpec
from .errors import CorpusFormatError, ValidationError

PRNG_ID = "numpy-pcg64"

PathLike = Union[str, Path]


class Origin(enum.Enum):
    """Provenance tag for a sentence pair."""

    ORIGINAL = "original"
    PSEUDO_BT = "pseudo_bt"
    PSEUDO_ST = "pseudo_st"
    CONCAT = "concat"


class Side(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


class Sentence(NamedTuple):
    """One sentence stored as its raw line text; tokens derive from it.

    Tokens are recomputed on access rather than cached: corpora run into
    the millions of sentences and token lists would triple memory.
    """

    raw: str

    @property
    def tokens(self) -> list[str]:
        return self.raw.split()

    def token_count(self) -> int:
        return len(self.raw.split())


class SentencePair(NamedTuple):
    id: int
    source: Sentence
    target: Sentence
    origin: Origin


@contextmanager
def gc_paused():
    """Suspend the cyclic GC around bulk object construction.

    Building millions of tuples and strings triggers repeated full
    collections that dominate runtime; none of the objects built here can
    form cycles. Allocation counters keep accumulating while collection
    is off, so on re-enable a surprise full collection would hit the
    caller's very next allocation; a single young-generation pass here
    absorbs that debt at a predictable point instead.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.collect(0)
            gc.enable()


class Corpus:
    """Immutable ordered collection of aligned sentence pairs."""

    __slots__ = ("pairs", "name", "source_lang", "target_lang", "meta")

    def __init__(
        self,
        pairs: Iterable[SentencePair],
        name: str = "corpus",
        source_lang: str = "src",
        target_lang: str = "tgt",
        meta: Optional[dict[str, str]] = None,
    ):
        self.pairs: tuple[SentencePair, ...] = tuple(pairs)
        self.name = name
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.meta: dict[str, str] = dict(meta or {})

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)

    def __getitem__(self, i: int) -> SentencePair:
        return self.pairs[i]

    def __eq__(self, other) -> bool:
        # Content equality only; name and meta are provenance, not data.
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Corpus({self.name!r}, {len(self.pairs)} pairs)"

    def source_token_counts(self) -> np.ndarray:
        return np.fromiter(
            (len(p.source.raw.split()) for p in self.pairs), np.int64, count=len(self.pairs)
        )

    def target_token_counts(self) -> np.ndarray:
        return np.fromiter(
            (len(p.target.raw.split()) for p in self.pairs), np.int64, count=len(self.pairs)
        )

    def token_counts(self, side: Side) -> np.ndarray:
        return self.source_token_counts() if side is Side.SOURCE else self.target_token_counts()

    def renumbered(self, name: Optional[str] = None, meta: Optional[dict[str, str]] = None) -> "Corpus":
        """Same pairs with ids reassigned to 0..n-1."""
        with gc_paused():
            pairs = [
                SentencePair(i, p.source, p.target, p.origin) for i, p in enumerate(self.pairs)
            ]
        return Corpus(pairs, name or self.name, self.source_lang, self.target_lang, meta or self.meta)


class LengthStats(NamedTuple):
    count: int
    mean_source_len: float
    histogram: dict[str, int]


def _check_line(raw: str, path: PathLike, lineno: int) -> str:
    if not raw or raw.isspace():
        raise CorpusFormatError(f"{path}:{lineno}: empty sentence")
    return raw


def load_parallel(
    source_path: PathLike,
    target_path: PathLike,
    origin: Origin = Origin.ORIGINAL,
    name: Optional[str] = None,
    source_lang: str = "src",
    target_lang: str = "tgt",
) -> Corpus:
    """Load a line-aligned file pair into a corpus, streaming line by line.

    Raises CorpusFormatError on a line-count mismatch (both counts
    reported), an empty line (line number reported), or invalid UTF-8.
    """
    source_path = Path(source_path)
    target_path = Path(target_path)
    pairs: list[SentencePair] = []
    n_src = n_tgt = 0
    with gc_paused():
        try:
            with open(source_path, encoding="utf-8", newline="") as fs, open(
                target_path, encoding="utf-8", newline=""
            ) as ft:
                append = pairs.append
                for src_line, tgt_line in zip_longest(fs, ft):
                    if src_line is not None:
                        n_src += 1
                    if tgt_line is not None:
                        n_tgt += 1
                    if src_line is None or tgt_line is None:
                        continue  # keep draining so both totals are exact
                    src_raw = _check_line(_strip_eol(src_line), source_path, n_src)
                    tgt_raw = _check_line(_strip_eol(tgt_line), target_path, n_tgt)
                    append(SentencePair(n_src - 1, Sentence(src_raw), Sentence(tgt_raw), origin))
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"invalid UTF-8 in {source_path} or {target_path}: {exc}") from exc
    if n_src != n_tgt:
        raise CorpusFormatError(
            f"line-count mismatch {n_src} vs {n_tgt} ({source_path} vs {target_path})"
        )
    return Corpus(
        pairs,
        name=name or source_path.stem,
        source_lang=source_lang,
        target_lang=target_lang,
        meta={"origin": origin.value, "source_path": str(source_path), "target_path": str(target_path)},
    )


def _strip_eol(line: str) -> str:
    if line.endswith("\n"):
        line = line[:-1]
    if line.endswith("\r"):
        line = line[:-1]
    return line


def save_parallel(corpus: Corpus, source_path: PathLike, target_path: PathLike) -> None:
    """Write the corpus back to a line-aligned file pair (UTF-8, LF)."""
    with open(source_path, "w", encoding="utf-8", newline="\n") as fs:
        fs.writelines(p.source.raw + "\n" for p in corpus.pairs)
    with open(target_path, "w", encoding="utf-8", newline="\n") as ft:
        ft.writelines(p.target.raw + "\n" for p in corpus.pairs)


def read_lines(path: PathLike) -> list[Sentence]:
    """Read one sentence per line (UTF-8), e.g. a decoder's output file.

    Unlike load_parallel, empty lines are kept: they are empty decodes.
    """
    with open(path, encoding="utf-8") as f:
        return [Sentence(line.rstrip("\n")) for line in f]


def write_sidecar(path: PathLike, entries: dict[str, str]) -> None:
    """Write a key=value metadata sidecar, keys sorted for determinism."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(entries):
            f.write(f"{key}={entries[key]}\n")


def read_sidecar(path: PathLike) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out


def validate_corpus(corpus: Corpus, sep_token: Optional[str] = None) -> list[str]:
    """Return a list of invariant violations (empty when clean).

    With ``sep_token`` given, also flags non-concatenated pairs containing
    the separator and concatenated pairs not containing exactly one per side.
    """
    problems: list[str] = []
    for i, p in enumerate(corpus.pairs):
        if p.id != i:
            problems.append(f"pair {i}: id {p.id} out of sequence")
        for side_name, sent in (("source", p.source), ("target", p.target)):
            if "\n" in sent.raw:
                problems.append(f"pair {i}: {side_name} contains a newline")
            if not sent.raw or sent.raw.isspace():
                problems.append(f"pair {i}: empty {side_name}")
            elif sep_token is not None:
                n_sep = sent.raw.split().count(sep_token)
                if p.origin is Origin.CONCAT and n_sep != 1:
                    problems.append(
                        f"pair {i}: concatenated {side_name} has {n_sep} separator tokens, expected 1"
                    )
                if p.origin is not Origin.CONCAT and n_sep != 0:
                    problems.append(
                        f"pair {i}: {side_name} contains reserved separator token {sep_token!r}"
                    )
    return problems


def length_stats(corpus: Corpus, buckets: BucketSpec, side: Side = Side.SOURCE) -> LengthStats:
    """Mean token count and per-bucket length histogram.

    The separator token, when present, counts as one word here (plain
    token count); augmentation-time filtering applies its own rule.
    """
    if len(corpus) == 0:
        raise ValidationError("length_stats: empty corpus")
    lens = corpus.token_counts(side)
    mean = float(lens.sum()) / len(lens)
    histogram = {label: 0 for label in buckets.labels}
    # searchsorted against inclusive upper bounds gives the bucket index
    idx = np.searchsorted(np.asarray(buckets.bounds), lens, side="left")
    in_range = idx < len(buckets.labels)
    counts = np.bincount(idx[in_range], minlength=len(buckets.labels))
    for label, n in zip(buckets.labels, counts):
        histogram[label] = int(n)
    return LengthStats(count=len(corpus), mean_source_len=mean, histogram=histogram)


def sample(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Uniform sample without replacement preserving original order.

    Deterministic for a fixed (corpus, n, seed).
    """
    size = len(corpus)
    if n > size:
        raise ValidationError(f"sample: n={n} exceeds corpus size {size}")
    if n < 0:
        raise ValidationError(f"sample: n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(size, size=n, replace=False))
    src = corpus.pairs
    with gc_paused():
        pairs = [
            SentencePair(k, src[i].source, src[i].target, src[i].origin)
            for k, i in enumerate(idx.tolist())
        ]
    meta = dict(corpus.meta)
    meta.update({"sampled_n": str(n), "sample_seed": str(seed), "prng": PRNG_ID})
    return Corpus(pairs, f"{corpus.name}[sample:{n}]", corpus.source_lang, corpus.target_lang, meta)


def holdout_split(corpus: Corpus, train_n: int, test_n: int, seed: int) -> tuple[Corpus, Corpus]:
    """Split into disjoint train and held-out pseudo-test corpora.

    Both halves keep the original relative order; no input pair lands in
    both. Deterministic for a fixed (corpus, train_n, test_n, seed).
    """
    size = len(corpus)
    if train_n < 0 or test_n < 0:
        raise ValidationError("holdout_split: counts must be >= 0")
    if train_n + test_n > size:
        raise ValidationError(
            f"holdout_split: train_n + test_n = {train_n + test_n} exceeds corpus size {size}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    train_idx = np.sort(perm[:train_n])
    test_idx = np.sort(perm[train_n : train_n + test_n])
    src = corpus.pairs

    def take(indices: np.ndarray, tag: str) -> Corpus:
        with gc_paused():
            pairs = [
                SentencePair(k, src[i].source, src[i].target, src[i].origin)
                for k, i in enumerate(indices.tolist())
            ]
        meta = dict(corpus.meta)
        meta.update(
            {
                "split": tag,
                "split_seed": str(seed),
                "split_train_n": str(train_n),
                "split_test_n": str(test_n),
                "prng": PRNG_ID,
            }
        )
        return Corpus(pairs, f"{corpus.name}[{tag}]", corpus.source_lang, corpus.target_lang, meta)

    return take(train_idx, "train"), take(test_idx, "heldout")
