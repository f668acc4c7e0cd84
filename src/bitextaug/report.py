"""Rendering of evaluation artifacts: score tables, judgment tables, charts.

All renderers are pure functions of their inputs and emit byte-identical
output for identical input: scores are displayed with one documented
rounding rule (Python round-half-even at one decimal), SVG geometry is
formatted with fixed precision, styles are inline, and nothing
environment-dependent (time, locale, paths) is written.
"""

from __future__ import annotations

import io
import math
from typing import Mapping, Optional, Sequence

from .errors import ValidationError
from .metrics import BleuDiff, BleuReport, JudgmentTally, DIMENSIONS, check_compatible

_PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")


def _fmt1(score: float) -> str:
    return f"{round(score, 1):.1f}"


def render_bucket_table(reports: Sequence[tuple[str, BleuReport]]) -> str:
    """Markdown table: one row per system, columns all + buckets.

    A sentence-count header row is included and the best score per column
    is bolded; ties are judged on the displayed (rounded) values and all
    tied systems are bolded.
    """
    if not reports:
        raise ValidationError("render_bucket_table: no reports")
    first = reports[0][1]
    for name, rep in reports[1:]:
        try:
            check_compatible([first, rep])
        except ValidationError as exc:
            raise ValidationError(f"report {name!r}: {exc}") from None
    labels = list(reports[0][1].per_bucket)
    columns = ["all"] + labels

    def cell_values(rep: BleuReport) -> list[Optional[float]]:
        return [rep.overall] + [rep.per_bucket[lb].score for lb in labels]

    rounded = [
        [None if v is None else round(v, 1) for v in cell_values(rep)]
        for _, rep in reports
    ]
    col_max: list[Optional[float]] = []
    for c in range(len(columns)):
        present = [row[c] for row in rounded if row[c] is not None]
        col_max.append(max(present) if present else None)

    counts = [sum(bs.count for bs in reports[0][1].per_bucket.values())] + [
        reports[0][1].per_bucket[lb].count for lb in labels
    ]

    out = io.StringIO()
    out.write("| system | " + " | ".join(columns) + " |\n")
    out.write("| --- |" + " ---: |" * len(columns) + "\n")
    out.write("| sentences | " + " | ".join(f"{c:,}" for c in counts) + " |\n")
    for (name, _), row in zip(reports, rounded):
        cells = []
        for c, value in enumerate(row):
            if value is None:
                cells.append("-")
            elif col_max[c] is not None and value == col_max[c]:
                cells.append(f"**{value:.1f}**")
            else:
                cells.append(f"{value:.1f}")
        out.write(f"| {name} | " + " | ".join(cells) + " |\n")
    return out.getvalue()


def render_judgment_table(tally: JudgmentTally) -> str:
    """Markdown table of pairwise win/tie/lose counts per length bucket.

    Within each (bucket, dimension) the larger of win and lose is bolded;
    equal win and lose counts bold both.
    """
    out = io.StringIO()
    out.write("| length | " + " | ".join(f"{d} win | {d} tie | {d} lose" for d in DIMENSIONS) + " |\n")
    out.write("| --- |" + " ---: |" * (3 * len(DIMENSIONS)) + "\n")

    def row_cells(counts_by_dim) -> list[str]:
        cells = []
        for d in DIMENSIONS:
            vc = counts_by_dim[d]
            win_best = vc.win >= vc.lose
            lose_best = vc.lose >= vc.win
            cells.append(f"**{vc.win}**" if win_best else str(vc.win))
            cells.append(str(vc.tie))
            cells.append(f"**{vc.lose}**" if lose_best else str(vc.lose))
        return cells

    for label, counts_by_dim in tally.rows.items():
        out.write(f"| {label} | " + " | ".join(row_cells(counts_by_dim)) + " |\n")
    out.write("| overall | " + " | ".join(row_cells(tally.overall)) + " |\n")
    return out.getvalue()


def render_diff_csv(diff: BleuDiff) -> str:
    out = io.StringIO()
    out.write("bucket,diff\n")
    out.write(f"all,{diff.overall!r}\n")
    for label, value in diff.per_bucket.items():
        out.write(f"{label},{'' if value is None else repr(value)}\n")
    return out.getvalue()


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw_step = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw_step:
            break
    ticks = []
    t = step * math.ceil(lo / step - 1e-12)
    while t <= hi + 1e-9:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return ticks


def render_diff_chart(
    series: Sequence[tuple[str, Mapping[str, Optional[float]]]],
    value_label: str = "BLEU difference",
    title: str = "",
    width: int = 760,
    height: int = 380,
) -> str:
    """Self-contained SVG grouped bar chart of per-bucket values.

    One series per entry (e.g. one per training-data size); the vertical
    axis is the given value (score differences by default) with a zero
    baseline. Buckets absent from a series are skipped. Output bytes are
    a pure function of the inputs.
    """
    if not series:
        raise ValidationError("render_diff_chart: no series")
    labels = list(series[0][1])
    for name, mapping in series[1:]:
        if list(mapping) != labels:
            raise ValidationError(
                f"render_diff_chart: series {name!r} uses different buckets"
            )
    values = [v for _, mapping in series for v in mapping.values() if v is not None]
    if not values:
        raise ValidationError("render_diff_chart: all values absent")
    lo = min(0.0, min(values))
    hi = max(0.0, max(values))
    if lo == hi:  # flat chart at the baseline still needs a visible band
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    margin_l, margin_r, margin_t, margin_b = 56, 16, 28 if title else 16, 64
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def x_of(group: int, member: int) -> float:
        group_w = plot_w / len(labels)
        bar_w = group_w * 0.8 / len(series)
        return margin_l + group * group_w + group_w * 0.1 + member * bar_w

    def y_of(value: float) -> float:
        return margin_t + (hi - value) / (hi - lo) * plot_h

    bar_w = plot_w / len(labels) * 0.8 / len(series)
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n')
    if title:
        out.write(
            f'<text x="{width / 2:.2f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#222222">{_esc(title)}</text>\n'
        )
    for tick in _nice_ticks(lo, hi):
        y = y_of(tick)
        out.write(
            f'<line x1="{margin_l}" y1="{y:.2f}" x2="{width - margin_r}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>\n'
        )
        out.write(
            f'<text x="{margin_l - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#444444">{tick:g}</text>\n'
        )
    zero_y = y_of(0.0)
    out.write(
        f'<line x1="{margin_l}" y1="{zero_y:.2f}" x2="{width - margin_r}" y2="{zero_y:.2f}" '
        f'stroke="#333333" stroke-width="1"/>\n'
    )
    for member, (name, mapping) in enumerate(series):
        color = _PALETTE[member % len(_PALETTE)]
        for group, label in enumerate(labels):
            value = mapping[label]
            if value is None:
                continue
            x = x_of(group, member)
            y0, y1 = sorted((y_of(0.0), y_of(value)))
            out.write(
                f'<rect x="{x:.2f}" y="{y0:.2f}" width="{bar_w:.2f}" '
                f'height="{max(y1 - y0, 0.5):.2f}" fill="{color}">'
                f"<title>{_esc(name)} {_esc(label)}: {value:.2f}</title></rect>\n"
            )
    for group, label in enumerate(labels):
        cx = margin_l + (group + 0.5) * plot_w / len(labels)
        out.write(
            f'<text x="{cx:.2f}" y="{height - margin_b + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{_esc(label)}</text>\n'
        )
    out.write(
        f'<text x="14" y="{margin_t + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" fill="#222222" '
        f'transform="rotate(-90 14 {margin_t + plot_h / 2:.2f})">{_esc(value_label)}</text>\n'
    )
    legend_y = height - 22
    legend_x = float(margin_l)
    for member, (name, _) in enumerate(series):
        color = _PALETTE[member % len(_PALETTE)]
        out.write(
            f'<rect x="{legend_x:.2f}" y="{legend_y - 9}" width="10" height="10" fill="{color}"/>\n'
        )
        out.write(
            f'<text x="{legend_x + 14:.2f}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{_esc(name)}</text>\n'
        )
        legend_x += 22 + 7 * len(name)
    out.write("</svg>\n")
    return out.getvalue()


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )
