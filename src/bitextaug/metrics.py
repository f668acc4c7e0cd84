"""Corpus BLEU, length-bucketed scoring, run averaging, and judgment tallies.

BLEU here is the standard corpus-level score: clipped n-gram precisions
for orders 1..n pooled over the corpus, combined as a geometric mean and
multiplied by the brevity penalty min(1, e^(1-r/c)), reported on a 0-100
scale. Single reference, no tokenization (callers supply whitespace
token-ready text), no smoothing unless requested. Orders for which the
hypothesis corpus has no n-grams at all are dropped from the geometric
mean; that degenerate case only arises when every hypothesis is shorter
than the order and keeps the identity BLEU(h, h) = 100 exact for any
non-empty corpus. Hypotheses with no tokens at all (a decoder that
returns only empty lines, for the whole corpus or for one length bucket)
score 0.0 with brevity penalty 0.0 and all-zero precisions, the limit of
the brevity penalty as the hypothesis length goes to 0; they do not raise.

Scores are computed from additive sufficient statistics: per-order
clipped-match and total n-gram counts plus the two corpus lengths. These
are integers, so the counts of disjoint item sets sum exactly to the
counts of their union. Scoring uses that to spread the counting over the
CPUs this process may use: each bucket's items are dealt round-robin to
W shards, one scored in this process and the others in forked children,
and the shard counts are summed. W is the number of usable CPUs, lowered
so that each shard gets at least SHARD_MIN_CHARS characters of hypothesis
text, and 1 where the platform cannot fork. A score does not depend on W.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
import signal
from itertools import repeat
from operator import and_, eq, sub
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .buckets import BucketSpec
from .errors import PipelineError, ValidationError

try:  # C-accelerated counter used by collections.Counter itself
    from collections import _count_elements
except ImportError:  # pragma: no cover - pure-python fallback

    def _count_elements(mapping, iterable):
        get = mapping.get
        for elem in iterable:
            mapping[elem] = get(elem, 0) + 1


# Each shard gets at least this many characters of hypothesis text. On a
# 2-vCPU VM, two shards broke even with one at about 240K characters each:
# below that, the fork and the pipe cost more than the second CPU saves.
SHARD_MIN_CHARS = 300_000


class BucketScore(NamedTuple):
    score: Optional[float]  # None marks an empty bucket (absent, not zero)
    count: int


class BleuReport(NamedTuple):
    overall: float
    per_bucket: dict[str, BucketScore]
    n_order: int
    bp: float
    precisions: tuple[float, ...]  # per-order modified precisions, 0-100 scale
    hyp_len: int
    ref_len: int
    excluded: int = 0  # items whose source length fell outside the bucket spec

    def bucket_labels(self) -> tuple[str, ...]:
        return tuple(self.per_bucket)


class BleuDiff(NamedTuple):
    overall: float
    per_bucket: dict[str, Optional[float]]


def _ngram_stats_order4(hyps: Sequence[str], refs: Sequence[str]):
    """Clipped-match and total n-gram counts for orders 1..4.

    Hand-specialized hot path. Identical pairs are counted from their
    length alone; every other pair goes through one of two exact tiers.

    Position tier, when neither side repeats a token: each reference
    token has one position, so each hypothesis token is mapped to
    q[i] = pos[h_i] - i. The n-gram starting at hypothesis index i
    occurs in the reference iff q[i] == ... == q[i+n-1] and all n tokens
    are present (it then starts at reference index q[i] + i). Matches
    are counted with C-level map(eq)/map(and_) over shifted lists. An
    absent token takes position -len(ht), so its q is -len(ht) - i:
    distinct for every i, hence no two absent tokens compare equal, and
    below the smallest present q, 0 - (len(ht) - 1), hence no absent
    token equals a present one. Each n-gram occurs at most once on each
    side, so membership already is the clipped count.

    Set tier, when a side repeats a token: reference n-grams of all four
    orders go into one set (key spaces are disjoint: str vs 2/3/4-tuples)
    and hypothesis n-grams are checked with C-level map/sum. When a
    hypothesis repeats an n-gram the set is not enough to clip, so those
    rare pairs fall back to exact counted matching.
    """
    matched = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    hyp_len = ref_len = 0
    zp = zip
    for hyp, ref in zp(hyps, refs):
        ht = hyp.split()
        rt = ref.split()
        lh = len(ht)
        hyp_len += lh
        ref_len += len(rt)
        total[0] += lh
        if lh > 1:
            total[1] += lh - 1
        if lh > 2:
            total[2] += lh - 2
        if lh > 3:
            total[3] += lh - 3
        if ht == rt:
            matched[0] += lh
            if lh > 1:
                matched[1] += lh - 1
            if lh > 2:
                matched[2] += lh - 2
            if lh > 3:
                matched[3] += lh - 3
            continue
        no_repeats = len(set(ht)) == lh
        if no_repeats:
            pos = dict(zp(rt, range(len(rt))))
            if len(pos) == len(rt):
                p = list(map(pos.get, ht, repeat(-lh, lh)))
                m = lh - p.count(-lh)
                if m == 0:
                    continue
                matched[0] += m
                q = list(map(sub, p, range(lh)))
                e = list(map(eq, q, q[1:]))  # e[i]: bigram at i matches
                m = e.count(True)
                if m == 0:
                    continue
                matched[1] += m
                e = list(map(and_, e, e[1:]))  # e[i]: trigram at i matches
                matched[2] += e.count(True)
                matched[3] += list(map(and_, e, e[1:])).count(True)
                continue
        r1 = rt[1:]
        r2 = rt[2:]
        r3 = rt[3:]
        rset = set(rt)
        up = rset.update
        up(zp(rt, r1))
        up(zp(rt, r1, r2))
        up(zp(rt, r1, r2, r3))
        contains = rset.__contains__
        h1 = ht[1:]
        h2 = ht[2:]
        h3 = ht[3:]
        rcounts = None
        for order, grams in (
            (0, ht),
            (1, list(zp(ht, h1))),
            (2, list(zp(ht, h1, h2))),
            (3, list(zp(ht, h1, h2, h3))),
        ):
            if not grams:
                break
            if no_repeats or len(set(grams)) == len(grams):
                m = sum(map(contains, grams))
            else:
                if rcounts is None:
                    rcounts = {}
                    _count_elements(rcounts, rt)
                    _count_elements(rcounts, zp(rt, r1))
                    _count_elements(rcounts, zp(rt, r1, r2))
                    _count_elements(rcounts, zp(rt, r1, r2, r3))
                get = rcounts.get
                m = 0
                for g in grams:
                    k = get(g)
                    if k:
                        m += 1
                        rcounts[g] = k - 1
            if m == 0:
                break  # an absent n-gram implies absent higher orders
            matched[order] += m
    return matched, total, hyp_len, ref_len


def _ngram_stats_generic(hyps: Sequence[str], refs: Sequence[str], n_order: int):
    """Counted clipped matching for arbitrary maximum order."""
    matched = [0] * n_order
    total = [0] * n_order
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        ht = hyp.split()
        rt = ref.split()
        lh = len(ht)
        hyp_len += lh
        ref_len += len(rt)
        for n in range(1, n_order + 1):
            if lh < n:
                break
            total[n - 1] += lh - n + 1
        rcounts: dict = {}
        for n in range(1, n_order + 1):
            if len(rt) < n:
                break
            _count_elements(
                rcounts, rt if n == 1 else zip(*(rt[i:] for i in range(n)))
            )
        get = rcounts.get
        for n in range(1, n_order + 1):
            if lh < n:
                break
            m = 0
            for g in ht if n == 1 else zip(*(ht[i:] for i in range(n))):
                k = get(g)
                if k:
                    m += 1
                    rcounts[g] = k - 1
            matched[n - 1] += m
    return matched, total, hyp_len, ref_len


def _ngram_stats(hyps: Sequence[str], refs: Sequence[str], n_order: int):
    """(matched, total, hyp_len, ref_len) from the kernel suited to n_order."""
    if n_order == 4:
        return _ngram_stats_order4(hyps, refs)
    return _ngram_stats_generic(hyps, refs, n_order)


class _Counts(NamedTuple):
    matched: list[int]
    total: list[int]
    hyp_len: int
    ref_len: int
    items: int


def _summed(parts: Sequence[tuple], items: int) -> _Counts:
    """Element-wise sum of (matched, total, hyp_len, ref_len, ...) counts."""
    return _Counts(
        [sum(col) for col in zip(*(p[0] for p in parts))],
        [sum(col) for col in zip(*(p[1] for p in parts))],
        sum(p[2] for p in parts),
        sum(p[3] for p in parts),
        items,
    )


def _shard_count(chars: int) -> int:
    """W for this much hypothesis text: usable CPUs, at most one per SHARD_MIN_CHARS."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chars // SHARD_MIN_CHARS))


def _send_and_exit(func: Callable, arg, write_fd: int) -> None:
    """In a forked child: pickle func(arg), or the exception it raised, into the pipe; exit."""
    code = 1
    try:
        try:
            payload = (True, func(arg))
        except BaseException as exc:  # re-raised in the parent
            payload = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)  # never unwind into the parent's code, run its atexit or flush its buffers


def _map_forked(func: Callable, args: Sequence) -> list:
    """[func(a) for a in args], args[0] here and each later one in a forked child.

    An exception raised in a child is raised here. A child that exits
    without sending its whole result raises PipelineError; nothing partial
    is returned. Every child is reaped before this returns or raises, and
    on an exception or interrupt the children still running are killed
    first.
    """
    children: list[tuple[int, io.BufferedReader]] = []  # not yet reaped
    try:
        for arg in args[1:]:
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _send_and_exit(func, arg, write_fd)
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write_fd)  # EOF comes when the child exits only if no later child holds it
            children.append((pid, pipe))
        results = [func(args[0])]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise PipelineError(
                    f"BLEU shard worker {pid} ended (exit code "
                    f"{os.waitstatus_to_exitcode(status)}) without sending its counts"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, _ in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _bucket_counts(
    buckets: Sequence[tuple[Sequence[str], Sequence[str]]], n_order: int
) -> list[_Counts]:
    """Exact counts of each (hypotheses, references) bucket, scored in W shards.

    Shard s takes items s, s + W, s + 2W, ... of every bucket, so long and
    short items spread evenly over the shards. The shard counts are
    integers and sum to the counts of a single pass.
    """
    w = _shard_count(sum(sum(map(len, hyps)) for hyps, _ in buckets))
    shards = [[(hyps[s::w], refs[s::w]) for hyps, refs in buckets] for s in range(w)]
    per_shard = _map_forked(
        lambda shard: [_ngram_stats(hyps, refs, n_order) for hyps, refs in shard], shards
    )
    return [
        _summed([stats[b] for stats in per_shard], len(hyps))
        for b, (hyps, _) in enumerate(buckets)
    ]


def _combine(matched, total, hyp_len, ref_len, n_order, smooth):
    if hyp_len == 0:  # empty output: the brevity penalty's limit is 0
        return 0.0, 0.0, (0.0,) * n_order
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    precisions: list[float] = []
    log_sum = 0.0
    effective = 0
    zero_precision = False
    for n in range(n_order):
        m, t = matched[n], total[n]
        if smooth and n >= 1 and t > 0:  # add-one smoothing on higher orders only
            m, t = m + 1, t + 1
        if t == 0:
            precisions.append(0.0)
            continue
        effective += 1
        p = m / t
        precisions.append(100.0 * p)
        if p == 0.0:
            zero_precision = True
        else:
            log_sum += math.log(p)
    if effective == 0 or zero_precision:
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(log_sum / effective)
    return score, bp, tuple(precisions)


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    n_order: int = 4,
    smooth: bool = False,
) -> BleuReport:
    """Corpus-level BLEU of hypotheses against single references.

    Exact clipped counting; with smooth=True, add-one smoothing is applied
    to orders >= 2 so tiny fixtures with no higher-order matches still get
    a nonzero score.
    """
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"corpus_bleu: {len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValidationError("corpus_bleu: empty input")
    if n_order < 1:
        raise ValidationError(f"corpus_bleu: n_order must be >= 1, got {n_order}")
    (c,) = _bucket_counts([(hypotheses, references)], n_order)
    score, bp, precisions = _combine(c.matched, c.total, c.hyp_len, c.ref_len, n_order, smooth)
    return BleuReport(
        overall=score,
        per_bucket={},
        n_order=n_order,
        bp=bp,
        precisions=precisions,
        hyp_len=c.hyp_len,
        ref_len=c.ref_len,
    )


def bucketed_bleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    sources: Sequence[str],
    buckets: BucketSpec,
    n_order: int = 4,
    smooth: bool = False,
) -> BleuReport:
    """Corpus BLEU overall and independently within source-length buckets.

    Items are assigned by source token count. With a finite last bound,
    longer items are excluded from every score (including the overall one)
    and counted in the report's ``excluded`` field; an open-ended spec
    excludes nothing. Empty buckets report score None, never 0.

    Each item is counted once: every bucket is scored from the n-gram
    counts of its members, and the overall score comes from the summed
    counts of the covered buckets. The sums are exact, so the overall
    score equals ``corpus_bleu`` over the covered items.
    """
    if not (len(hypotheses) == len(references) == len(sources)):
        raise ValidationError(
            "bucketed_bleu: hypotheses, references, and sources must have equal lengths "
            f"({len(hypotheses)}, {len(references)}, {len(sources)})"
        )
    if not hypotheses:
        raise ValidationError("bucketed_bleu: empty input")
    if n_order < 1:
        raise ValidationError(f"bucketed_bleu: n_order must be >= 1, got {n_order}")
    src_lens = np.fromiter(map(len, map(str.split, sources)), np.int64, count=len(sources))
    if int(src_lens.min()) < 1:
        raise ValidationError("bucketed_bleu: sources must be non-empty sentences")
    idx = np.searchsorted(np.asarray(buckets.bounds), src_lens, side="left")
    n_buckets = len(buckets.labels)
    excluded = int((idx >= n_buckets).sum())
    if excluded == len(sources):
        raise ValidationError("bucketed_bleu: every item falls outside the bucket spec")
    members = [np.flatnonzero(idx == b).tolist() for b in range(n_buckets)]
    counts = _bucket_counts(
        [([hypotheses[i] for i in m], [references[i] for i in m]) for m in members], n_order
    )
    per_bucket: dict[str, BucketScore] = {}
    for label, c in zip(buckets.labels, counts):
        if c.items == 0:
            per_bucket[label] = BucketScore(None, 0)
        else:
            score, _, _ = _combine(c.matched, c.total, c.hyp_len, c.ref_len, n_order, smooth)
            per_bucket[label] = BucketScore(score, c.items)
    covered = _summed(counts, sum(c.items for c in counts))
    score, bp, precisions = _combine(
        covered.matched, covered.total, covered.hyp_len, covered.ref_len, n_order, smooth
    )
    return BleuReport(
        overall=score,
        per_bucket=per_bucket,
        n_order=n_order,
        bp=bp,
        precisions=precisions,
        hyp_len=covered.hyp_len,
        ref_len=covered.ref_len,
        excluded=excluded,
    )


def check_compatible(reports: Sequence[BleuReport]) -> None:
    """Raise ValidationError unless the reports share buckets, bucket counts and n-gram order."""
    first = reports[0]
    for rep in reports[1:]:
        if tuple(rep.per_bucket) != tuple(first.per_bucket):
            raise ValidationError("reports use different bucket specs")
        if rep.n_order != first.n_order:
            raise ValidationError("reports use different n-gram orders")
        for label in first.per_bucket:
            if rep.per_bucket[label].count != first.per_bucket[label].count:
                raise ValidationError(
                    f"reports disagree on bucket {label!r} counts: "
                    f"{first.per_bucket[label].count} vs {rep.per_bucket[label].count}"
                )
            if (rep.per_bucket[label].score is None) != (first.per_bucket[label].score is None):
                raise ValidationError(f"reports disagree on bucket {label!r} presence")


def average_runs(reports: Sequence[BleuReport]) -> BleuReport:
    """Arithmetic mean of overall and per-bucket scores across runs.

    Counts are unchanged; reports must share bucket spec and counts.
    """
    if not reports:
        raise ValidationError("average_runs: no reports")
    check_compatible(reports)
    k = len(reports)
    per_bucket: dict[str, BucketScore] = {}
    for label in reports[0].per_bucket:
        if reports[0].per_bucket[label].score is None:
            per_bucket[label] = reports[0].per_bucket[label]
        else:
            per_bucket[label] = BucketScore(
                sum(r.per_bucket[label].score for r in reports) / k,
                reports[0].per_bucket[label].count,
            )
    n_order = reports[0].n_order
    return BleuReport(
        overall=sum(r.overall for r in reports) / k,
        per_bucket=per_bucket,
        n_order=n_order,
        bp=sum(r.bp for r in reports) / k,
        precisions=tuple(
            sum(r.precisions[i] for r in reports) / k for i in range(n_order)
        ),
        hyp_len=reports[0].hyp_len,
        ref_len=reports[0].ref_len,
        excluded=reports[0].excluded,
    )


def diff_by_bucket(a: BleuReport, b: BleuReport) -> BleuDiff:
    """Per-bucket and overall score differences a - b.

    Buckets absent in either report stay absent in the diff.
    """
    if tuple(a.per_bucket) != tuple(b.per_bucket):
        raise ValidationError("diff_by_bucket: reports use different bucket specs")
    per_bucket: dict[str, Optional[float]] = {}
    for label in a.per_bucket:
        sa, sb = a.per_bucket[label].score, b.per_bucket[label].score
        per_bucket[label] = None if sa is None or sb is None else sa - sb
    return BleuDiff(overall=a.overall - b.overall, per_bucket=per_bucket)


# --- pairwise human judgments ---------------------------------------------

DIMENSIONS = ("adequacy", "fluency")
VERDICTS = ("win", "tie", "lose")


class Judgment(NamedTuple):
    item_id: str
    source_len: int
    dimension: str  # adequacy | fluency
    verdict: str  # win | tie | lose


class VerdictCounts(NamedTuple):
    win: int
    tie: int
    lose: int

    def __add__(self, other: "VerdictCounts") -> "VerdictCounts":  # type: ignore[override]
        return VerdictCounts(self.win + other.win, self.tie + other.tie, self.lose + other.lose)


class JudgmentTally(NamedTuple):
    # per bucket label, per dimension
    rows: dict[str, dict[str, VerdictCounts]]
    overall: dict[str, VerdictCounts]


def tally_judgments(judgments: Sequence[Judgment], buckets: BucketSpec) -> JudgmentTally:
    """Win/tie/lose counts per (source-length bucket, dimension).

    The overall row is the column sum over buckets. Duplicate
    (item, dimension) records are an error: one verdict each.
    """
    seen: set[tuple[str, str]] = set()
    counts: dict[str, dict[str, list[int]]] = {
        label: {d: [0, 0, 0] for d in DIMENSIONS} for label in buckets.labels
    }
    for j in judgments:
        if j.dimension not in DIMENSIONS:
            raise ValidationError(f"unknown dimension {j.dimension!r} for item {j.item_id!r}")
        if j.verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {j.verdict!r} for item {j.item_id!r}")
        key = (j.item_id, j.dimension)
        if key in seen:
            raise ValidationError(f"duplicate judgment for item {j.item_id!r} on {j.dimension}")
        seen.add(key)
        label = buckets.label_of(j.source_len)
        if label is None:
            raise ValidationError(
                f"item {j.item_id!r}: source length {j.source_len} outside bucket spec"
            )
        counts[label][j.dimension][VERDICTS.index(j.verdict)] += 1
    rows = {
        label: {d: VerdictCounts(*counts[label][d]) for d in DIMENSIONS}
        for label in buckets.labels
    }
    overall = {
        d: sum((rows[label][d] for label in buckets.labels), VerdictCounts(0, 0, 0))
        for d in DIMENSIONS
    }
    return JudgmentTally(rows=rows, overall=overall)


def read_judgments(path) -> list[Judgment]:
    """Read a tab-separated judgment file.

    Expected header: item_id <TAB> source_len <TAB> dimension <TAB> verdict.
    """
    out: list[Judgment] = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        expected = ["item_id", "source_len", "dimension", "verdict"]
        if header != expected:
            raise ValidationError(
                f"{path}: bad judgment header {header!r}, expected {expected!r}"
            )
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 tab-separated fields")
            item_id, source_len, dimension, verdict = fields
            try:
                length = int(source_len)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad source_len {source_len!r}") from exc
            out.append(Judgment(item_id, length, dimension, verdict))
    return out


def write_judgments(path, judgments: Sequence[Judgment]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("item_id\tsource_len\tdimension\tverdict\n")
        for j in judgments:
            f.write(f"{j.item_id}\t{j.source_len}\t{j.dimension}\t{j.verdict}\n")


# --- BleuReport serialization ----------------------------------------------

_CSV_HEADER = ["bucket", "count", "score"]


def report_to_csv(report: BleuReport) -> str:
    """Serialize a report as CSV with a leading '#'-prefixed metadata block.

    Scores are written at full precision (repr); absent bucket scores are
    empty fields. The overall score appears as the bucket named "all".
    """
    buf = io.StringIO()
    buf.write(f"# n_order={report.n_order}\n")
    buf.write(f"# bp={report.bp!r}\n")
    buf.write(f"# precisions={','.join(repr(p) for p in report.precisions)}\n")
    buf.write(f"# hyp_len={report.hyp_len}\n")
    buf.write(f"# ref_len={report.ref_len}\n")
    buf.write(f"# excluded={report.excluded}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    total_count = sum(bs.count for bs in report.per_bucket.values())
    writer.writerow(["all", total_count, repr(report.overall)])
    for label, bs in report.per_bucket.items():
        writer.writerow([label, bs.count, "" if bs.score is None else repr(bs.score)])
    return buf.getvalue()


def report_from_csv(text: str) -> BleuReport:
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            rows.append(next(csv.reader([line])))
    if not rows or rows[0] != _CSV_HEADER:
        raise ValidationError(f"bad report CSV header: {rows[0] if rows else 'missing'}")
    overall = None
    per_bucket: dict[str, BucketScore] = {}
    for bucket, count, score in rows[1:]:
        if bucket == "all":
            overall = float(score)
        else:
            per_bucket[bucket] = BucketScore(float(score) if score else None, int(count))
    if overall is None:
        raise ValidationError("report CSV missing the 'all' row")
    precisions = tuple(float(p) for p in meta.get("precisions", "").split(",") if p)
    return BleuReport(
        overall=overall,
        per_bucket=per_bucket,
        n_order=int(meta.get("n_order", 4)),
        bp=float(meta.get("bp", 1.0)),
        precisions=precisions,
        hyp_len=int(meta.get("hyp_len", 0)),
        ref_len=int(meta.get("ref_len", 0)),
        excluded=int(meta.get("excluded", 0)),
    )
