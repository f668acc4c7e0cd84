"""Parallel-corpus data model, file ingestion, statistics, and sampling.

Corpora are line-aligned plain-text file pairs: UTF-8, LF line endings,
one sentence per line, equal line counts. In memory a corpus is three
aligned columns (source lines, target lines, origin tags) of one private
type, _Lines. A loaded or translated column holds its items in a numpy
object array; a derived one (a concatenation, a mix, a subset of either)
builds its lines from its parent columns by numpy indexing when they are
read, one write chunk at a time, so joined lines are never all held at
once. Each column works out its per-line facts (token counts, a token's
occurrences, origin codes) once, from its parts' facts, without building
a joined line. A token, or "word", is a maximal run of characters for
which ``str.isspace()`` is false, so tab, U+3000, NBSP, U+2028 and U+0085
separate tokens and only ``\n`` ends a line; ``tokenize`` is that rule,
for every length, bucket, separator check and BLEU n-gram in the package.

All randomized operations use numpy's PCG64 generator so that a given
seed reproduces the same output on any platform. The generator id
("numpy-pcg64") is recorded in output metadata sidecars.
"""

from __future__ import annotations

import enum
import hashlib
import operator
import os
from collections.abc import Sequence as SequenceABC
from itertools import accumulate, chain, compress, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .buckets import BucketSpec
from .errors import CorpusFormatError, ValidationError
from .forked import map_forked

PRNG_ID = "numpy-pcg64"

PathLike = Union[str, Path]

# the token rule; str.split itself, since a def wrapper would add a Python
# frame to each of the BLEU kernel's per-sentence calls
tokenize = str.split


def token_lengths(lines: Sequence[str]) -> np.ndarray:
    """The token count of every line, as an int32 array."""
    return np.fromiter(map(len, map(tokenize, lines)), np.int32, count=len(lines))


def rows_with_token(lines: Sequence[str], token: str) -> list[int]:
    """The ascending indices of the lines holding ``token``, which must be one token to be found."""
    if tokenize(token) != [token]:
        return []  # a tokenized line holds no empty token and none with whitespace
    # a line without the substring cannot hold the token, and a hit on it
    # between two spaces proves it does; only the other lines are tokenized
    spaced = f" {token} "
    hits = compress(range(len(lines)), map(operator.contains, lines, repeat(token)))
    return [i for i in hits if spaced in lines[i] or token in tokenize(lines[i])]


# lines built or encoded at a time, so no whole column is ever held as one
# str or bytes, and a derived column's lines are never all built at once
_WRITE_CHUNK_LINES = 4096


def _array(items: Iterable) -> np.ndarray:
    """Plain items as a read-only 1-d object array; an object array is kept as it is."""
    if isinstance(items, np.ndarray):
        array = items.astype(object, copy=False)  # a str array's items become str
    else:
        array = np.fromiter(items, object)
    array.flags.writeable = False
    return array


# the key of a column's origin codes; its token counts are keyed by None, a token's occurrences by it
_CODES = object()


def _plain_fact(items: np.ndarray, key) -> np.ndarray:
    """One per-line fact of an array of lines, or of origins, read from the items themselves."""
    if key is None:
        return token_lengths(items)
    if key is _CODES:  # each origin's position in Origin
        origins = tuple(Origin)
        if len(items) and (items == items[0]).all():
            return np.full(len(items), origins.index(items[0]), np.int8)
        return np.fromiter(map(origins.index, items), np.int8, len(items))
    counts = np.zeros(len(items), np.int32)
    rows = rows_with_token(items, key)  # only the lines holding the token are split
    counts[rows] = [tokenize(items[i]).count(key) for i in rows]
    return counts


def _items(part, rows: np.ndarray) -> np.ndarray:
    """The items of a column's part at ``rows``, in that order, as an object array."""
    return part[rows] if type(part) is np.ndarray else part._gather(rows)


class _Joined:
    """Concatenated lines not yet built: line k is ``column[first[k]] <sep> column[second[k]]``."""

    __slots__ = ("column", "first", "second", "sep")

    def __init__(self, column: "_Lines", first: np.ndarray, second: np.ndarray, sep: str):
        first.flags.writeable = second.flags.writeable = False
        self.column, self.first, self.second, self.sep = column, first, second, sep

    def __len__(self) -> int:
        return len(self.first)

    @staticmethod
    def join(first, second, sep: str):
        """The line of two halves with the separator between, or of each pair of items of two object arrays."""
        return first + f" {sep} " + second  # object arrays add item by item

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        return self.join(self.column._gather(self.first[rows]), self.column._gather(self.second[rows]), self.sep)

    def _fact(self, key) -> np.ndarray:
        # a joined line holds its halves' tokens plus one separator, counted under key None and the separator's
        halves = self.column._fact(key)
        return halves[self.first] + halves[self.second] + (key is None or key == self.sep)


class _Lines(SequenceABC):
    """A read-only column of a corpus (lines or origins) and the per-line facts known of it.

    Its items are those of ``parts`` one after another, taken through the
    row map ``order`` when there is one. A part is a 1-d object array (plain
    items are converted once), a _Joined over a column, or another column.
    Every read is a numpy index per part, so a slice or an index builds only
    the lines read, and iterating one _WRITE_CHUNK_LINES chunk at a time. A
    slice is a tuple; a column equals a tuple or another column with the
    same items.

    Each fact (token counts, how often each line holds a token, origin
    codes) is worked out once, from the parts' facts, so no joined line is
    built for it; ``facts`` gives those known from how the column was made.
    """

    __slots__ = ("_parts", "_starts", "_order", "_facts")

    def __init__(
        self, parts: Iterable[Sequence], order: Optional[np.ndarray] = None, facts: Optional[dict] = None
    ):
        self._parts = tuple(p if isinstance(p, (_Lines, _Joined)) else _array(p) for p in parts)
        self._starts = [0, *accumulate(map(len, self._parts))]  # each part's first row, then the count
        if order is not None:
            order.flags.writeable = False
        self._order = order
        self._facts: dict = dict(facts or {})
        for fact in self._facts.values():
            fact.flags.writeable = False

    def __len__(self) -> int:
        return self._starts[-1] if self._order is None else len(self._order)

    def __getitem__(self, i):
        if self._plain():  # one array index, or a view of the array for a slice
            return tuple(self._parts[0][i].tolist()) if isinstance(i, slice) else self._parts[0][i]
        if isinstance(i, slice):  # tolist hands over the items in one call, not one at a time
            return tuple(self._gather(np.arange(*i.indices(len(self)))).tolist())
        return self._gather(np.array([range(len(self))[i]]))[0]

    def __iter__(self) -> Iterator:
        chunks = range(0, len(self), _WRITE_CHUNK_LINES)
        return chain.from_iterable(self[start : start + _WRITE_CHUNK_LINES] for start in chunks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _Lines)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def take(self, rows: np.ndarray) -> "_Lines":
        """The column of the items at ``rows``, in that order, with the facts known of them."""
        facts = {key: fact[rows] for key, fact in self._facts.items()}
        if self._plain():  # a copy, so that the items not taken can be freed
            return _Lines([self._parts[0][rows]], facts=facts)
        order = np.arange(len(self)) if self._order is None else self._order
        return _Lines(self._parts, order[rows], facts)

    def token_counts(self, token: Optional[str] = None) -> np.ndarray:
        """The token count of every line, or how often each holds ``token`` when given, int32."""
        return self._fact(token)

    def codes(self) -> np.ndarray:
        """Each origin's position in Origin, int8, for a column of origins."""
        return self._fact(_CODES)

    def _plain(self) -> bool:
        """Whether the column is one array of its items, in order."""
        return self._order is None and len(self._parts) == 1 and type(self._parts[0]) is np.ndarray

    def _fact(self, key) -> np.ndarray:
        fact = self._facts.get(key)
        if fact is None:
            facts = [_plain_fact(p, key) if type(p) is np.ndarray else p._fact(key) for p in self._parts]
            fact = facts[0] if len(facts) == 1 else np.concatenate(facts)
            if self._order is not None:
                fact = fact[self._order]
            fact.flags.writeable = False
            self._facts[key] = fact
        return fact

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        """The items at ``rows``, in that order, as an object array."""
        if self._order is not None:
            rows = self._order[rows]
        if len(self._parts) == 1:
            return _items(self._parts[0], rows)
        part_of = np.searchsorted(self._starts, rows, side="right") - 1
        items = np.empty(len(rows), object)
        for p, part in enumerate(self._parts):
            at = part_of == p
            items[at] = _items(part, rows[at] - self._starts[p])
        return items


def lang_code_problems(source_lang: str, target_lang: str) -> list[str]:
    """Why two language codes cannot name a corpus's two files, empty when they can.

    A code is the suffix of a written file, so it must be non-empty, free
    of whitespace and path separators, not a reserved suffix, and differ
    from the other code.
    """
    problems = []
    for label, code in (("source_lang", source_lang), ("target_lang", target_lang)):
        if not code or any(c.isspace() or c in "/\\" for c in code):
            problems.append(f"{label} {code!r} must be non-empty, without whitespace or a path separator")
        elif code in ("manifest", "meta"):  # the suffixes of the mix manifest and the sidecar
            problems.append(f"{label} {code!r} is reserved for the {code} file")
    if source_lang == target_lang:
        problems.append(f"source_lang and target_lang are both {source_lang!r}")
    return problems


class Origin(enum.Enum):
    """Provenance tag for a sentence pair."""

    ORIGINAL = "original"
    PSEUDO_BT = "pseudo_bt"
    PSEUDO_ST = "pseudo_st"
    CONCAT = "concat"


class Side(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


class SentencePair(NamedTuple):
    """One row of a corpus, as yielded by iterating or indexing it."""

    source: str
    target: str
    origin: Origin


def _column(items: Iterable) -> _Lines:
    return items if isinstance(items, _Lines) else _Lines([items])


class Corpus:
    """Immutable ordered corpus held as three equal-length columns.

    ``sources[i]``, ``targets[i]`` and ``origins[i]`` make up pair i;
    iterating or indexing yields SentencePair rows built on the fly. Each
    column is a read-only _Lines, which equals the tuple of its items: a
    loaded or translated column holds an object array, and a derived one (a
    concatenation, a mix, a subset of either) builds its lines from its
    parent columns when they are read. A column also works out its token
    counts and how often each line holds a token once, from its parts, so a
    derived corpus splits no line its parents have split; a translated
    corpus keeps the column object of the side that was not translated.
    """

    __slots__ = ("sources", "targets", "origins", "name", "source_lang", "target_lang", "meta")

    def __init__(
        self,
        sources: Iterable[str],
        targets: Iterable[str],
        origins: Iterable[Origin],
        name: str = "corpus",
        source_lang: str = "src",
        target_lang: str = "tgt",
        meta: Optional[dict[str, str]] = None,
    ):
        self.sources: _Lines = _column(sources)
        self.targets: _Lines = _column(targets)
        self.origins: _Lines = _column(origins)
        if not len(self.sources) == len(self.targets) == len(self.origins):
            raise ValidationError(
                f"corpus columns differ in length: {len(self.sources)} sources, "
                f"{len(self.targets)} targets, {len(self.origins)} origins"
            )
        self.name = name
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.meta: dict[str, str] = dict(meta or {})

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self) -> Iterator[SentencePair]:
        return map(SentencePair, self.sources, self.targets, self.origins)

    def __getitem__(self, i: int) -> SentencePair:
        return SentencePair(self.sources[i], self.targets[i], self.origins[i])

    def __eq__(self, other) -> bool:
        # Content equality only; name and meta are provenance, not data.
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.sources == other.sources
            and self.targets == other.targets
            and self.origins == other.origins
        )

    def __repr__(self) -> str:
        return f"Corpus({self.name!r}, {len(self)} pairs)"

    def take(self, rows: Sequence[int], name: str, meta: dict[str, str]) -> "Corpus":
        """The pairs at ``rows``, in that order, as a new corpus in the same languages."""
        index = np.asarray(rows, dtype=np.intp)
        columns = (column.take(index) for column in (self.sources, self.targets, self.origins))
        return Corpus(*columns, name, self.source_lang, self.target_lang, meta)

    def column(self, side: Side) -> _Lines:
        return self.sources if side is Side.SOURCE else self.targets

    def token_counts(self, side: Side) -> np.ndarray:
        """One side's token_lengths, read-only, computed once and shared with derived corpora."""
        return self.column(side).token_counts()

    def token_rows(self, side: Side, token: str) -> int:
        """How many lines of one side hold ``token``, as rows_with_token counts them."""
        return int(np.count_nonzero(self.column(side).token_counts(token)))


class LengthStats(NamedTuple):
    count: int
    mean_source_len: float
    histogram: dict[str, int]


def scan_lines(path: PathLike) -> Iterator[str]:
    """Yield the lines of a UTF-8 file.

    Only ``\\n`` ends a line, and one ``\\r`` before it is dropped, so CRLF
    files read like LF files. Any other ``\\r`` stays inside its line. One
    leading byte-order mark is dropped too; a later U+FEFF is text. A
    missing file or invalid UTF-8 raises CorpusFormatError naming the path.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as f:
            for line in f:
                yield line.removesuffix("\n").removesuffix("\r")
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise CorpusFormatError(f"{path}: file not found") from exc
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: invalid UTF-8 ({exc})") from exc


def line_problem(line: str) -> Optional[str]:
    """Why a line cannot be a corpus sentence, or None when it can."""
    if not line or line.isspace():
        return "empty sentence"
    if "\r" in line:
        return "carriage return inside the line"
    return None


def read_parallel(
    source_path: PathLike, target_path: PathLike, sep_token: Optional[str] = None
) -> tuple[Optional[list[str]], Optional[list[str]], list[str]]:
    """Read a line-aligned file pair, one pass per file, keeping every line.

    Returns ``(sources, targets, violations)``. The violations name each
    line that has a line_problem or, with ``sep_token`` given, holds that
    token; each file scan_lines cannot read, whose column is then None;
    and a line-count mismatch between two files that were read.
    """
    violations: list[str] = []
    columns: list[Optional[list[str]]] = []
    for path in (source_path, target_path):
        lines: Optional[list[str]] = []
        try:
            for lineno, line in enumerate(scan_lines(path), start=1):
                lines.append(line)
                problem = line_problem(line)
                if problem is None and sep_token and sep_token in line and sep_token in tokenize(line):
                    problem = f"contains reserved separator token {sep_token!r}"
                if problem is not None:
                    violations.append(f"{path}:{lineno}: {problem}")
        except CorpusFormatError as exc:
            violations.append(str(exc))
            lines = None
        columns.append(lines)
    sources, targets = columns
    if sources is not None and targets is not None and len(sources) != len(targets):
        counts = f"{len(sources)} vs {len(targets)}"
        violations.append(f"{source_path} vs {target_path}: line-count mismatch {counts}")
    return sources, targets, violations


def load_parallel(
    source_path: PathLike,
    target_path: PathLike,
    origin: Origin = Origin.ORIGINAL,
    name: Optional[str] = None,
    source_lang: str = "src",
    target_lang: str = "tgt",
) -> Corpus:
    """Load a line-aligned file pair into a corpus, one column per file.

    The files are read by read_parallel; its first violation, if any, is
    raised as a CorpusFormatError.
    """
    source_path = Path(source_path)
    target_path = Path(target_path)
    sources, targets, violations = read_parallel(source_path, target_path)
    if violations:
        raise CorpusFormatError(violations[0])
    return Corpus(
        sources,
        targets,
        (origin,) * len(sources),
        name=name or source_path.stem,
        source_lang=source_lang,
        target_lang=target_lang,
        meta={"origin": origin.value, "source_path": str(source_path), "target_path": str(target_path)},
    )


def _sides_starting_with_bom(corpus: Corpus) -> list[str]:
    """The sides whose first line starts with U+FEFF, which scan_lines drops on reading."""
    return [
        side.value
        for side in Side
        if corpus.column(side) and corpus.column(side)[0].startswith("\ufeff")
    ]


# A corpus of at least this many lines writes its target file in a forked
# child while this process writes the source file. Below it, the fork and
# the child's copy-on-write faults (it touches the refcount of every line it
# writes) cost more than the second CPU saves. On a 2-vCPU VM, two processes
# took 1.51-1.59 of one's time at 65,536 lines of a loaded corpus (8-30 words
# a line), 0.94-1.07 at 98,304 and 0.91-0.94 at 131,072; on a shuffled
# vanilla+concat mix, whose lines are built as they are written, 0.83-1.21,
# 0.65-0.72 and 0.59-0.67. A loaded corpus breaks even last.
_FORK_MIN_LINES = 131_072


def _child_running() -> bool:
    """Whether a child of this process runs and none has exited, as while run's test side works.

    Such a child already keeps the other CPU busy, so a forked writer would
    only add its fork and copy-on-write cost.
    """
    if not hasattr(os, "waitid"):
        return False
    try:  # WNOWAIT leaves an exited child to whoever waits for it
        return os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
    except ChildProcessError:  # no child at all
        return False


def save_parallel(corpus: Corpus, source_path: PathLike, target_path: PathLike) -> tuple[str, str]:
    """Write the corpus back to a line-aligned file pair (UTF-8, LF).

    Returns the sha256 hex digests of the source and the target file,
    computed from the bytes as they are written. Raises CorpusFormatError,
    before writing anything, when a first line starts with U+FEFF: the
    reload would drop it as a byte-order mark. A corpus of at least
    _FORK_MIN_LINES lines is written in two processes at once, the source
    file here and the target file in a forked child (forked.map_forked),
    which is reaped before this returns and whose exception is raised here.
    A smaller one, any written while a child of this process still runs,
    and any without ``os.fork`` is written one file after the other.
    """
    sides = _sides_starting_with_bom(corpus)
    if sides:
        raise CorpusFormatError(
            f"cannot save {corpus.name!r}: the first {' and '.join(sides)} line starts with "
            "U+FEFF, which would read back as a byte-order mark"
        )
    files = [(source_path, corpus.sources), (target_path, corpus.targets)]
    if len(corpus) < _FORK_MIN_LINES or _child_running():
        return write_lines(*files[0]), write_lines(*files[1])
    source, target = map_forked(lambda file: write_lines(*file), files, "target writer", "sha256")
    return source, target


def _chunks(lines: Sequence[str]) -> Iterator[bytes]:
    """The bytes of one line per item (UTF-8, LF), a _WRITE_CHUNK_LINES slice at a time."""
    for start in range(0, len(lines), _WRITE_CHUNK_LINES):
        yield ("\n".join(lines[start : start + _WRITE_CHUNK_LINES]) + "\n").encode()


def write_lines(path: PathLike, lines: Sequence[str]) -> str:
    """Write one line per item (UTF-8, LF), a _WRITE_CHUNK_LINES slice at a time.

    Returns the sha256 hex digest of the written bytes. Only one slice is
    built and encoded at a time, so a _Lines column is written without
    building all its lines.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for data in _chunks(lines):
            digest.update(data)
            f.write(data)
    return digest.hexdigest()


def read_lines(path: PathLike) -> list[str]:
    """Read one sentence per line (UTF-8), e.g. a decoder's output file.

    Lines are split as scan_lines splits them. Unlike load_parallel, every
    line is kept: empty lines are empty decodes, and a line that keeps a
    carriage return stays one line.
    """
    return list(scan_lines(path))


def write_sidecar(path: PathLike, entries: dict[str, str]) -> None:
    """Write a key=value metadata sidecar, keys sorted for determinism."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(entries):
            f.write(f"{key}={entries[key]}\n")


def read_sidecar(path: PathLike) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in scan_lines(path):
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def validate_corpus(corpus: Corpus, sep_token: Optional[str] = None) -> list[str]:
    """Return a list of invariant violations (empty when clean).

    A first line that starts with U+FEFF is flagged: save_parallel refuses
    it. With ``sep_token`` given, also flags non-concatenated pairs containing
    the separator and concatenated pairs not containing exactly one per side.
    """
    problems = [
        f"pair 0: {side} starts with U+FEFF, which reads back as a byte-order mark"
        for side in _sides_starting_with_bom(corpus)
    ]
    concat = corpus.origins.codes() == tuple(Origin).index(Origin.CONCAT)
    empty_problem = line_problem("")  # line_problem's word for an empty line, reported as "empty <side>"
    found = []  # (pair, side, check, message), sorted into the order each pair reports its lines
    for s, side in enumerate(Side):
        lines = corpus.column(side)
        breaks, empty = np.empty(len(lines), bool), np.empty(len(lines), bool)
        for start in range(0, len(lines), _WRITE_CHUNK_LINES):  # each line is built once
            chunk = lines[start : start + _WRITE_CHUNK_LINES]
            at = slice(start, start + len(chunk))
            breaks[at] = list(map(operator.contains, chunk, repeat("\n")))
            breaks[at] |= list(map(operator.contains, chunk, repeat("\r")))
            empty[at] = list(map(operator.eq, map(line_problem, chunk), repeat(empty_problem)))
        broken = f"{side.value} contains a newline or carriage return"
        found += ((i, s, 0, broken) for i in np.flatnonzero(breaks).tolist())
        found += ((i, s, 1, f"empty {side.value}") for i in np.flatnonzero(empty).tolist())
        if sep_token is not None:  # an empty line is not checked for the separator
            counts = lines.token_counts(sep_token)
            for i in np.flatnonzero((counts != concat) & ~empty).tolist():
                if concat[i]:
                    message = f"concatenated {side.value} has {counts[i]} separator tokens, expected 1"
                else:
                    message = f"{side.value} contains reserved separator token {sep_token!r}"
                found.append((i, s, 2, message))
    return problems + [f"pair {i}: {message}" for i, _, _, message in sorted(found)]


def length_stats(corpus: Corpus, buckets: BucketSpec, side: Side = Side.SOURCE) -> LengthStats:
    """Mean token count and per-bucket length histogram.

    The separator token, when present, counts as one word here (plain
    token count); augmentation-time filtering applies its own rule.
    """
    if len(corpus) == 0:
        raise ValidationError("length_stats: empty corpus")
    lens = corpus.token_counts(side)
    if not lens.all():  # a bucket spec starts at length 1
        raise ValidationError(f"length_stats: {side.value} lines must be non-empty sentences")
    mean = float(lens.sum()) / len(lens)
    # the extra last slot counts the lengths past a finite last bound
    counts = np.bincount(buckets.assign(lens), minlength=len(buckets.labels) + 1)
    histogram = {label: int(n) for label, n in zip(buckets.labels, counts)}
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
    if seed < 0:
        raise ValidationError(f"sample: seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(size, size=n, replace=False))
    meta = {**corpus.meta, "sampled_n": str(n), "sample_seed": str(seed), "prng": PRNG_ID}
    return corpus.take(idx, f"{corpus.name}[sample:{n}]", meta)


def holdout_split(corpus: Corpus, train_n: int, test_n: int, seed: int) -> tuple[Corpus, Corpus]:
    """Split into disjoint train and held-out pseudo-test corpora.

    Both halves keep the original relative order; no input pair lands in
    both. Deterministic for a fixed (corpus, train_n, test_n, seed).
    """
    size = len(corpus)
    if train_n < 0 or test_n < 0:
        raise ValidationError("holdout_split: counts must be >= 0")
    if seed < 0:
        raise ValidationError(f"holdout_split: seed must be >= 0, got {seed}")
    if train_n + test_n > size:
        raise ValidationError(
            f"holdout_split: train_n + test_n = {train_n + test_n} exceeds corpus size {size}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    train_idx = np.sort(perm[:train_n])
    test_idx = np.sort(perm[train_n : train_n + test_n])

    def part(indices: np.ndarray, tag: str) -> Corpus:
        meta = {**corpus.meta, "split": tag, "split_seed": str(seed)}
        meta.update(split_train_n=str(train_n), split_test_n=str(test_n), prng=PRNG_ID)
        return corpus.take(indices, f"{corpus.name}[{tag}]", meta)

    return part(train_idx, "train"), part(test_idx, "heldout")
