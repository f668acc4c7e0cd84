"""Corpus BLEU, length-bucketed scoring, run averaging, and judgment tallies.

BLEU here is the standard corpus-level score: clipped n-gram precisions
for orders 1..n pooled over the corpus, combined as a geometric mean and
multiplied by the brevity penalty min(1, e^(1-r/c)), reported on a 0-100
scale. Single reference, tokens as ``corpus.tokenize`` splits them, no
smoothing unless requested. Orders for which the hypothesis corpus has
no n-grams at all are dropped from the geometric mean; that degenerate
case only arises when every hypothesis is shorter than the order and
keeps the identity BLEU(h, h) = 100 exact for any non-empty corpus.
Hypotheses with no tokens at all (a decoder that returns only empty
lines, for the whole corpus or for one length bucket) score 0.0 with
brevity penalty 0.0 and all-zero precisions, the limit of the brevity
penalty as the hypothesis length goes to 0; they do not raise.

Scores are computed from additive sufficient statistics: per-order
clipped-match and total n-gram counts plus the two lengths, one integer
row per item; a bucket's counts sum its items' rows and the overall
counts sum the buckets'. These exact sums spread the counting over the
CPUs this process may use: the scored items, sorted by bucket, are dealt
round-robin to W shards, one scored here and the others in forked
children; each shard sums its rows per bucket and the parent sums the
shards. W is the number of usable CPUs, lowered so that each shard gets
at least SHARD_MIN_CHARS characters of hypothesis text, and 1 where the
platform cannot fork. A score does not depend on W.

One kernel, ``_ngram_stats``, counts every n-gram order. It is
item-major and scores K decoding runs of one test set together: each
reference is split once, and each distinct hypothesis line of an item is
split and counted once; a run that returned the line of an earlier run
takes that run's row. A pair is counted in one of two exact tiers: in
numpy, over a block of items at a time, when the reference repeats no
token (the slot tier); and with per-item n-gram counts when it does (the
counted tier).
``bucketed_bleu_runs`` scores K runs with one source split, one bucket
assignment and one set of shard workers; ``bucketed_bleu`` and
``corpus_bleu`` are its K = 1 cases.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import _count_elements  # the counting loop of Counter.update, in C where built
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .buckets import BucketSpec
from .corpus import scan_lines, token_lengths, tokenize
from .errors import ValidationError
from .forked import map_forked


# Each shard gets at least this many characters of hypothesis text. On a
# 2-vCPU VM, on bleu-long-tail-shaped text (1-200 words, a 30% tail past
# 70), two shards broke even with one at about 100K-140K characters each:
# below that, the fork and the pipe cost more than the second CPU saves. At
# 190K characters each, two shards took 0.80-0.90 of one shard's wall time.
SHARD_MIN_CHARS = 150_000

# Slot-tier reference slots counted together. It bounds the flat buffers and
# their numpy temporaries to about 64 KiB per run each. With one block for
# all items, scoring the bleu-long-tail inputs raised a `bitextaug bleu`
# process's peak RSS by 5.4 MiB (9%); with 2**13 slots, by about 0.3 MiB.
_BLOCK_SLOTS = 1 << 13


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


class BleuDiff(NamedTuple):
    overall: float
    per_bucket: dict[str, Optional[float]]


def _ngram_stats(hyp_runs: Sequence[Sequence[str]], refs: Sequence[str], n_order: int) -> np.ndarray:
    """Per-item clipped-match and n-gram counts, orders 1..n_order, of K runs.

    hyp_runs holds K hypothesis lists, each aligned with refs. Returns an
    int64 array of shape (K, len(refs), 2 * n_order + 2). The row of run k
    and item i holds the item's clipped matches per order, its hypothesis
    n-grams per order, its hypothesis length and its reference length.

    Item-major: each reference is split once, and each distinct hypothesis
    line of an item is split and matched once. The hypothesis n-grams
    follow from the hypothesis length. A pair takes one of two exact tiers.

    1. Slot tier, for a reference that repeats no token: each reference
       token gets a slot, numbered across the references of a block of
       items with one spare slot after each reference. Each hypothesis
       token's slot, or -1 when the reference lacks it, goes into a flat
       per-run buffer, and the block is counted at once in numpy
       (``_slot_matches``): the n-gram at buffer index i matches iff the n
       slots from i are present and consecutive, so it occurs in the
       reference starting at slot p[i]; the spare slot keeps such a run
       inside one sentence. Every n-gram of such a reference occurs once,
       so the clipped count is the number of distinct reference start
       slots hit, whatever the hypothesis repeats.
    2. Counted tier, for a reference that repeats a token: its n-gram
       counts of all orders go into one dict (key spaces are disjoint: str
       vs n-tuples), built once per item, and each hypothesis n-gram takes
       one from a copy of it while any are left.

    A hypothesis equal to its reference takes its reference's tier. A line
    that an earlier run returned for the same item is not split again: the
    later run records (item, earlier run), where the earlier run is the
    first that returned the line, and once every row is complete it takes
    that run's whole row.
    """
    # imported here, not at module level: array is a shared library, and
    # the commands that score nothing (mix, concat, ...) need not map it
    from array import array

    n_runs = len(hyp_runs)
    columns = np.zeros((n_runs, 2 * n_order + 2, len(refs)), np.int64)  # the rows, transposed
    matched = columns[:, :n_order]
    lengths = [array("q") for _ in range(n_runs)]
    ref_lens = array("q")
    slots = [array("q") for _ in range(n_runs)]  # the slot tier's flat buffers
    repeats = [array("q") for _ in range(n_runs)]  # (item, earlier run) of each line an earlier run returned
    start = free = 0  # the first item and the next unused reference slot of this block

    def count_block(stop: int) -> None:
        widths = np.frombuffer(ref_lens, np.int64)[start:stop] + 1  # each reference's slots and its spare one
        firsts = np.cumsum(widths) - widths
        for k, buffer in enumerate(slots):
            if buffer:
                matched[k, :, start:stop] += _slot_matches(buffer, firsts, free, n_order)
                del buffer[:]

    for item, (ref, hyps) in enumerate(zip(refs, zip(*hyp_runs))):
        if free >= _BLOCK_SLOTS:
            count_block(item)
            start, free = item, 0
        rt = tokenize(ref)
        lr = len(rt)
        ref_lens.append(lr)
        pos = dict(zip(rt, range(free, free + lr)))
        free += lr + 1
        if len(pos) < lr:
            pos = None
        rcounts = None
        for k, hyp in enumerate(hyps):
            first = hyps.index(hyp)
            if first < k:
                repeats[k].extend((item, first))
                lengths[k].append(0)  # the row copy sets it
                continue
            ht = tokenize(hyp)
            lengths[k].append(len(ht))
            if pos is not None:
                slots[k].extend(map(pos.get, ht, repeat(-1)))
                continue
            if rcounts is None:
                rcounts = {}
                for n in range(1, n_order + 1):
                    _count_elements(rcounts, rt if n == 1 else zip(*(rt[i:] for i in range(n))))
            left = rcounts.copy()
            get = left.get
            for n in range(1, n_order + 1):
                m = 0
                for g in ht if n == 1 else zip(*(ht[i:] for i in range(n))):
                    c = get(g)
                    if c:
                        m += 1
                        left[g] = c - 1
                if m == 0:
                    break
                matched[k, n - 1, item] = m
    count_block(len(refs))
    for k in range(n_runs):
        columns[k, -2], columns[k, -1] = lengths[k], ref_lens
    np.maximum(columns[:, -2, None] - np.arange(n_order)[:, None], 0, out=columns[:, n_order:-2])
    for k, pairs in enumerate(repeats):
        if pairs:
            items, earlier = np.frombuffer(pairs, np.int64).reshape(-1, 2).T
            columns[k][:, items] = columns[earlier, :, items].T
    return columns.transpose(0, 2, 1)


def _slot_matches(buffer: "array.array", firsts: np.ndarray, n_slots: int, n_order: int) -> np.ndarray:
    """The slot tier's clipped matches per item and order: the distinct reference slots where a matching n-gram starts.

    buffer holds each hypothesis token's reference slot, -1 when absent;
    slots lie in 0..n_slots-1, and item j's run from firsts[j] and include
    at least its spare one. Returns shape (n_order, items). An item whose
    line the run took from an earlier run has no tokens here and reads 0
    until the row copy.
    """
    p = np.frombuffer(buffer, np.int64)
    hit = np.zeros((n_order, n_slots), np.uint8)  # hit[n, slot]: a matching (n+1)-gram starts there
    starts = p >= 0  # starts[i]: the n-gram at i matches, for the current n
    follows = p[1:] == p[:-1] + 1  # follows[i]: token i + 1 takes the slot after token i's
    for n in range(n_order):
        if n:
            starts = starts[:-1] & follows[n - 1 :]
        found = p[: len(starts)][starts]
        if not len(found):
            break  # an absent n-gram implies absent higher orders
        hit[n, found] = 1
    return np.add.reduceat(hit, firsts, axis=1, dtype=np.int64)


def _shard_count(chars: int) -> int:
    """W for this much hypothesis text: usable CPUs, at most one per SHARD_MIN_CHARS."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chars // SHARD_MIN_CHARS))


def _bucket_sums(
    hyp_runs: Sequence[Sequence[str]], refs: Sequence[str], bucket: np.ndarray, n_buckets: int, n_order: int
) -> np.ndarray:
    """The summed ``_ngram_stats`` rows of each run and bucket, shape (K, n_buckets, columns), scored in W shards.

    bucket[i] is item i's bucket; an item past the last bucket is neither
    scored nor counted toward W. Shard s takes every W-th scored item in
    bucket order from the s-th, so each bucket's long and short items
    spread evenly over the shards. The sums equal those of a single pass.
    """
    order = np.argsort(bucket, kind="stable")[: np.count_nonzero(bucket < n_buckets)]
    if not np.array_equal(order, np.arange(len(refs))):  # else the items are in place, and slices deal them
        items = order.tolist()
        hyp_runs = [list(map(hyps.__getitem__, items)) for hyps in hyp_runs]
        refs = list(map(list(refs).__getitem__, items))  # a column is read in one pass, not item by item
    bucket = bucket[order]
    w = _shard_count(sum(sum(map(len, hyps)) for hyps in hyp_runs))

    def shard(s: int) -> np.ndarray:
        rows = _ngram_stats([hyps[s::w] for hyps in hyp_runs], refs[s::w], n_order)
        ends = np.searchsorted(bucket[s::w], range(1, n_buckets))  # where each bucket after the first starts
        return np.stack([part.sum(axis=1) for part in np.split(rows, ends, axis=1)], axis=1)

    return sum(map_forked(shard, range(w), worker="BLEU shard worker", result="counts"))


def _combine(row: Sequence[int], n_order: int, smooth: bool) -> tuple[float, float, tuple[float, ...]]:
    """(score, brevity penalty, per-order precisions) from a summed row of counts."""
    hyp_len, ref_len = row[-2:]
    if hyp_len == 0:  # empty output: the brevity penalty's limit is 0
        return 0.0, 0.0, (0.0,) * n_order
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    precisions: list[float] = []
    log_sum = 0.0
    effective = 0
    zero_precision = False
    for n in range(n_order):
        m, t = row[n], row[n_order + n]
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


def _report(row: Sequence[int], n_order: int, smooth: bool, per_bucket: dict, excluded: int) -> BleuReport:
    score, bp, precisions = _combine(row, n_order, smooth)
    return BleuReport(score, per_bucket, n_order, bp, precisions, row[-2], row[-1], excluded)


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
    ((row,),) = _bucket_sums([hypotheses], references, np.zeros(len(hypotheses), np.intp), 1, n_order).tolist()
    return _report(row, n_order, smooth, {}, 0)


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
    return bucketed_bleu_runs([hypotheses], references, sources, buckets, n_order, smooth)[0]


def bucketed_bleu_runs(
    hyp_runs: Sequence[Sequence[str]],
    references: Sequence[str],
    sources: Sequence[str],
    buckets: BucketSpec,
    n_order: int = 4,
    smooth: bool = False,
) -> list[BleuReport]:
    """``[bucketed_bleu(h, references, sources, ...) for h in hyp_runs]``, in one pass.

    The runs share one source split, one bucket assignment and one set of
    shard workers, and each reference is prepared once for all of them.
    """
    for hypotheses in hyp_runs:
        if not (len(hypotheses) == len(references) == len(sources)):
            raise ValidationError(
                "bucketed_bleu: hypotheses, references, and sources must have equal lengths "
                f"({len(hypotheses)}, {len(references)}, {len(sources)})"
            )
    if not references:
        raise ValidationError("bucketed_bleu: empty input")
    if n_order < 1:
        raise ValidationError(f"bucketed_bleu: n_order must be >= 1, got {n_order}")
    src_lens = token_lengths(sources)
    if int(src_lens.min()) < 1:
        raise ValidationError("bucketed_bleu: sources must be non-empty sentences")
    idx = buckets.assign(src_lens)
    n_buckets = len(buckets.labels)
    *sizes, excluded = np.bincount(idx, minlength=n_buckets + 1).tolist()
    if excluded == len(sources):
        raise ValidationError("bucketed_bleu: every item falls outside the bucket spec")
    sums = _bucket_sums(hyp_runs, references, idx, n_buckets, n_order)
    reports = []
    for run in sums:
        per_bucket = {
            label: BucketScore(_combine(row, n_order, smooth)[0] if count else None, count)
            for label, row, count in zip(buckets.labels, run.tolist(), sizes)
        }
        reports.append(_report(run.sum(axis=0).tolist(), n_order, smooth, per_bucket, excluded))
    return reports


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
    """Read a tab-separated judgment file, its lines split as scan_lines splits them.

    Expected header: item_id <TAB> source_len <TAB> dimension <TAB> verdict.
    """
    out: list[Judgment] = []
    lines = scan_lines(path)
    header = next(lines, "").split("\t")
    expected = ["item_id", "source_len", "dimension", "verdict"]
    if header != expected:
        raise ValidationError(f"{path}: bad judgment header {header!r}, expected {expected!r}")
    for lineno, line in enumerate(lines, start=2):
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
    for row in rows[1:]:
        try:
            bucket, count, score = row
            if bucket == "all":
                overall = float(score)
            else:
                per_bucket[bucket] = BucketScore(float(score) if score else None, int(count))
        except ValueError:
            raise ValidationError(f"bad report CSV row {','.join(row)!r}") from None
    if overall is None:
        raise ValidationError("report CSV missing the 'all' row")
    fields = {}
    for key, parse, default in (
        ("n_order", int, 4), ("bp", float, 1.0), ("hyp_len", int, 0),
        ("ref_len", int, 0), ("excluded", int, 0),
        ("precisions", lambda v: tuple(float(p) for p in v.split(",") if p), ()),
    ):
        try:
            fields[key] = parse(meta[key]) if key in meta else default
        except ValueError:
            raise ValidationError(f"bad report CSV metadata {key}={meta[key]!r}") from None
    return BleuReport(overall=overall, per_bucket=per_bucket, **fields)
