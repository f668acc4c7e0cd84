"""Parallel-corpus augmentation and evaluation toolkit.

Builds synthetic long training sentences by concatenating randomly
sampled pairs around a separator token, orchestrates back-translation and
self-training through a file-based subprocess contract, assembles the
standard augmented training mixes with exact size accounting, and scores
translations with corpus BLEU broken down by source-sentence length.
"""

from .augment import AugmentConfig, concat_augment, concat_pair, measure_concat_mean
from .buckets import (
    EXTENDED_BUCKETS,
    PAIRWISE_BUCKETS,
    STANDARD_BUCKETS,
    BucketSpec,
    parse_bucket_spec,
)
from .corpus import (
    Corpus,
    LengthStats,
    Origin,
    SentencePair,
    Side,
    holdout_split,
    length_stats,
    load_parallel,
    read_lines,
    sample,
    save_parallel,
    validate_corpus,
)
from .errors import (
    AugmentationError,
    CorpusFormatError,
    PipelineError,
    ToolError,
    TranslatorError,
    ValidationError,
)
from .metrics import (
    BleuDiff,
    BleuReport,
    BucketScore,
    Judgment,
    JudgmentTally,
    average_runs,
    bucketed_bleu,
    corpus_bleu,
    diff_by_bucket,
    read_judgments,
    report_from_csv,
    report_to_csv,
    tally_judgments,
    write_judgments,
)
from .mix import RECIPES, MixManifest, MixRecipe, build_mix, mix_manifest, write_mix
from .pipeline import PipelineConfig, cmd_run, cmd_validate
from .report import (
    render_bucket_table,
    render_diff_chart,
    render_diff_csv,
    render_judgment_table,
)
from .translate import (
    Direction,
    TranslatorSpec,
    back_translate,
    mock_spec,
    self_train,
    translate_file,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "AugmentationError",
    "BleuDiff",
    "BleuReport",
    "BucketScore",
    "BucketSpec",
    "Corpus",
    "CorpusFormatError",
    "Direction",
    "EXTENDED_BUCKETS",
    "Judgment",
    "JudgmentTally",
    "LengthStats",
    "MixManifest",
    "MixRecipe",
    "Origin",
    "PAIRWISE_BUCKETS",
    "PipelineConfig",
    "PipelineError",
    "RECIPES",
    "STANDARD_BUCKETS",
    "SentencePair",
    "Side",
    "ToolError",
    "TranslatorError",
    "TranslatorSpec",
    "ValidationError",
    "average_runs",
    "back_translate",
    "bucketed_bleu",
    "build_mix",
    "cmd_run",
    "cmd_validate",
    "concat_augment",
    "concat_pair",
    "corpus_bleu",
    "diff_by_bucket",
    "holdout_split",
    "length_stats",
    "load_parallel",
    "measure_concat_mean",
    "mix_manifest",
    "mock_spec",
    "parse_bucket_spec",
    "read_judgments",
    "read_lines",
    "render_bucket_table",
    "render_diff_chart",
    "render_diff_csv",
    "render_judgment_table",
    "report_from_csv",
    "report_to_csv",
    "sample",
    "save_parallel",
    "self_train",
    "tally_judgments",
    "translate_file",
    "validate_corpus",
    "write_judgments",
    "write_mix",
]
