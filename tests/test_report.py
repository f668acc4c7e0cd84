from pathlib import Path

import pytest

from bitextaug.buckets import PAIRWISE_BUCKETS
from bitextaug.errors import ValidationError
from bitextaug.metrics import (
    BleuDiff,
    BleuReport,
    BucketScore,
    Judgment,
    tally_judgments,
)
from bitextaug.report import (
    render_bucket_table,
    render_diff_chart,
    render_diff_csv,
    render_judgment_table,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(scores, counts, overall):
    return BleuReport(
        overall=overall,
        per_bucket={lb: BucketScore(scores[lb], counts[lb]) for lb in scores},
        n_order=4,
        bp=1.0,
        precisions=(0.0, 0.0, 0.0, 0.0),
        hyp_len=0,
        ref_len=0,
    )


class TestBucketTable:
    def test_best_per_column_bolded(self):
        counts = {"1-10": 73, "11-20": 529}
        baseline = _report({"1-10": 22.9, "11-20": 23.0}, counts, 26.5)
        augmented = _report({"1-10": 25.4, "11-20": 25.6}, counts, 29.4)
        table = render_bucket_table([("baseline", baseline), ("augmented", augmented)])
        lines = table.splitlines()
        assert lines[0] == "| system | all | 1-10 | 11-20 |"
        assert "| sentences | 602 | 73 | 529 |" in table
        assert "| baseline | 26.5 | 22.9 | 23.0 |" in table
        assert "| augmented | **29.4** | **25.4** | **25.6** |" in table

    def test_single_system_all_bold(self):
        rep = _report({"1-10": 10.0}, {"1-10": 3}, 10.0)
        table = render_bucket_table([("only", rep)])
        assert "| only | **10.0** | **10.0** |" in table

    def test_ties_all_bolded_on_rounded_values(self):
        counts = {"1-10": 4}
        # raw values differ but round to the same display value
        a = _report({"1-10": 17.9499}, counts, 17.94)
        b = _report({"1-10": 17.9001}, counts, 17.91)
        table = render_bucket_table([("a", a), ("b", b)])
        assert "| a | **17.9** | **17.9** |" in table
        assert "| b | **17.9** | **17.9** |" in table

    def test_absent_bucket_rendered_as_dash(self):
        rep = _report({"1-10": 10.0, "11-20": None}, {"1-10": 3, "11-20": 0}, 10.0)
        table = render_bucket_table([("sys", rep)])
        assert "| sys | **10.0** | **10.0** | - |" in table

    def test_round_half_even_display(self):
        rep = _report({"1-10": 0.25}, {"1-10": 1}, 0.25)
        table = render_bucket_table([("sys", rep)])
        # 0.25 rounds to 0.2 under round-half-even
        assert "**0.2**" in table

    def test_bucket_mismatch_rejected(self):
        a = _report({"1-10": 1.0}, {"1-10": 3}, 1.0)
        b = _report({"1-20": 2.0}, {"1-20": 3}, 2.0)
        with pytest.raises(ValidationError, match="report 'b': reports use different bucket specs"):
            render_bucket_table([("a", a), ("b", b)])
        c = _report({"1-10": 2.0}, {"1-10": 4}, 2.0)
        with pytest.raises(ValidationError, match="report 'c': reports disagree on bucket '1-10' counts"):
            render_bucket_table([("a", a), ("c", c)])


class TestJudgmentTable:
    def test_win_vs_lose_bolding(self):
        judgments = (
            [Judgment(f"a{i}", 5, "adequacy", "win") for i in range(4)]
            + [Judgment(f"b{i}", 5, "adequacy", "tie") for i in range(5)]
            + [Judgment(f"c{i}", 5, "adequacy", "lose") for i in range(3)]
            + [Judgment(f"a{i}", 5, "fluency", "lose") for i in range(4)]
            + [Judgment(f"b{i}", 5, "fluency", "win") for i in range(2)]
        )
        tally = tally_judgments(judgments, PAIRWISE_BUCKETS)
        table = render_judgment_table(tally)
        first_row = [line for line in table.splitlines() if line.startswith("| 1-10 ")][0]
        # adequacy: win 4 > lose 3 -> win bold; fluency: lose 4 > win 2 -> lose bold
        assert "**4** | 5 | 3" in first_row
        assert "2 | 0 | **4**" in first_row

    def test_equal_win_lose_bolds_both(self):
        judgments = [
            Judgment("a", 55, "adequacy", "win"),
            Judgment("b", 55, "adequacy", "lose"),
        ]
        tally = tally_judgments(judgments, PAIRWISE_BUCKETS)
        table = render_judgment_table(tally)
        row = [line for line in table.splitlines() if line.startswith("| 51- ")][0]
        assert "**1** | 0 | **1**" in row

    def test_overall_row_present(self):
        tally = tally_judgments([], PAIRWISE_BUCKETS)
        table = render_judgment_table(tally)
        assert table.splitlines()[-1].startswith("| overall |")


class TestDiffChart:
    def fixture_series(self):
        return [
            ("400K", {"1-10": 1.1, "11-20": 0.1, "21-30": 0.3, "31-40": 0.6,
                      "41-50": 1.5, "51-60": 0.9, "61-70": 1.2, "71-": 1.4}),
            ("800K", {"1-10": -0.4, "11-20": 0.2, "21-30": 0.1, "31-40": 0.4,
                      "41-50": 0.8, "51-60": 1.1, "61-70": None, "71-": 2.2}),
            ("1M", {"1-10": -0.2, "11-20": -0.1, "21-30": 0.0, "31-40": 0.2,
                    "41-50": -0.3, "51-60": -0.5, "61-70": -0.9, "71-": -1.2}),
        ]

    def test_matches_golden_file(self):
        svg = render_diff_chart(self.fixture_series(), title="Gain by training-data size")
        golden = (GOLDEN / "diff_chart.svg").read_text(encoding="utf-8")
        assert svg == golden

    def test_rerender_is_byte_identical(self):
        a = render_diff_chart(self.fixture_series())
        b = render_diff_chart(self.fixture_series())
        assert a.encode("utf-8") == b.encode("utf-8")

    def test_all_zero_diffs_flat_chart(self):
        series = [("flat", {"1-10": 0.0, "11-20": 0.0})]
        svg = render_diff_chart(series)
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")

    def test_single_mark_encodes_value(self):
        svg = render_diff_chart([("one", {"1-10": 2.5})])
        assert "one 1-10: 2.50" in svg

    def test_absent_buckets_skipped(self):
        svg_with = render_diff_chart([("s", {"1-10": 1.0, "11-20": 1.0})])
        svg_without = render_diff_chart([("s", {"1-10": 1.0, "11-20": None})])
        assert svg_with.count("<rect") == svg_without.count("<rect") + 1

    def test_inconsistent_buckets_rejected(self):
        with pytest.raises(ValidationError, match="different buckets"):
            render_diff_chart([("a", {"1-10": 1.0}), ("b", {"11-20": 1.0})])

    def test_self_contained_no_external_refs(self):
        svg = render_diff_chart(self.fixture_series())
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert "@import" not in svg and "url(" not in svg


class TestDiffCsv:
    def test_layout(self):
        diff = BleuDiff(overall=0.6, per_bucket={"1-10": 2.5, "11-20": None})
        text = render_diff_csv(diff)
        lines = text.splitlines()
        assert lines[0] == "bucket,diff"
        assert lines[1] == "all,0.6"
        assert lines[2] == "1-10,2.5"
        assert lines[3] == "11-20,"
