"""Sentence-length buckets used for stratified evaluation and statistics.

A bucket spec is an ordered list of inclusive upper bounds. The first
bucket always starts at length 1; ``math.inf`` as the last bound makes the
final bucket open-ended. Lengths beyond a finite last bound fall outside
the spec and are reported as excluded rather than silently bucketed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError


class BucketSpec(NamedTuple):
    bounds: tuple[float, ...]
    labels: tuple[str, ...]

    @classmethod
    def from_bounds(
        cls, bounds: Sequence[float], labels: Optional[Sequence[str]] = None
    ) -> "BucketSpec":
        """Build a spec from inclusive upper bounds, generating labels if absent.

        Generated labels read "1-10", "11-20", ... and "71-" for an
        open-ended final bucket.
        """
        if not bounds:
            raise ValidationError("bucket spec needs at least one bound")
        bl = list(bounds)
        for prev, cur in zip(bl, bl[1:]):
            if cur <= prev:
                raise ValidationError(f"bucket bounds must be strictly increasing: {bl}")
        if any(b != math.inf and not (math.isfinite(b) and b == int(b) and b >= 1) for b in bl):
            raise ValidationError(f"bucket bounds must be positive integers or inf: {bl}")
        if labels is None:
            labels = []
            lo = 1
            for b in bl:
                labels.append(f"{lo}-" if b == math.inf else f"{lo}-{int(b)}")
                if b != math.inf:
                    lo = int(b) + 1
        elif len(labels) != len(bl):
            raise ValidationError("one label per bucket required")
        return cls(tuple(float(b) for b in bl), tuple(labels))

    def index_of(self, length: int) -> Optional[int]:
        """Bucket index for a sentence length, or None when out of range."""
        if length < 1:
            raise ValidationError(f"sentence length must be >= 1, got {length}")
        i = bisect_left(self.bounds, length)
        return i if i < len(self.bounds) else None

    def assign(self, lengths: np.ndarray) -> np.ndarray:
        """Bucket index of each length (>= 1), as index_of gives it.

        A length past a finite last bound gets ``len(self.labels)``.
        """
        # searchsorted against inclusive upper bounds gives the bucket index
        return np.searchsorted(np.asarray(self.bounds), lengths, side="left")

    def label_of(self, length: int) -> Optional[str]:
        i = self.index_of(length)
        return None if i is None else self.labels[i]


# Eight buckets topping out at an open-ended 71+ class: the breakdown used
# for ordinary test sets.
STANDARD_BUCKETS = BucketSpec.from_bounds([10, 20, 30, 40, 50, 60, 70, math.inf])

# Finer high end (71-100, 101-200) for large held-out pseudo test sets where
# very long sentences are populated well enough to score separately.
EXTENDED_BUCKETS = BucketSpec.from_bounds([10, 20, 30, 40, 50, 60, 70, 100, 200])

# Coarse breakdown used for pairwise human judgments (everything past 50
# words collapses into one class).
PAIRWISE_BUCKETS = BucketSpec.from_bounds([10, 20, 30, 40, 50, math.inf])

NAMED_BUCKET_SPECS = {
    "standard": STANDARD_BUCKETS,
    "extended": EXTENDED_BUCKETS,
    "pairwise": PAIRWISE_BUCKETS,
}


def parse_bucket_spec(text: str) -> BucketSpec:
    """Resolve a named spec or parse a comma-separated bound list.

    Accepts "standard", "extended", "pairwise", or e.g. "10,20,40,inf".
    """
    key = text.strip().lower()
    if key in NAMED_BUCKET_SPECS:
        return NAMED_BUCKET_SPECS[key]
    bounds: list[float] = []
    for part in key.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "inf":
            bounds.append(math.inf)
        else:
            try:
                bounds.append(int(part))
            except ValueError as exc:
                raise ValidationError(f"cannot parse bucket bounds {text!r}") from exc
    if not bounds:
        raise ValidationError(f"cannot parse bucket bounds {text!r}")
    return BucketSpec.from_bounds(bounds)
