"""Parallel-corpus augmentation and evaluation toolkit.

Builds synthetic long training sentences by concatenating randomly
sampled pairs around a separator token, orchestrates back-translation and
self-training through a file-based subprocess contract, assembles the
standard augmented training mixes with exact size accounting, and scores
translations with corpus BLEU broken down by source-sentence length.

Importing the package imports none of its modules: each public name, and
each submodule, is imported on first access (PEP 562). A translator child
such as ``python -m bitextaug.mocks`` therefore starts without numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, listed under the module that defines it.
_EXPORTS = {
    "augment": ("AugmentConfig", "concat_augment", "concat_pair", "measure_concat_mean"),
    "buckets": (
        "EXTENDED_BUCKETS",
        "PAIRWISE_BUCKETS",
        "STANDARD_BUCKETS",
        "BucketSpec",
        "parse_bucket_spec",
    ),
    "corpus": (
        "Corpus",
        "LengthStats",
        "Origin",
        "SentencePair",
        "Side",
        "holdout_split",
        "length_stats",
        "load_parallel",
        "read_lines",
        "sample",
        "save_parallel",
        "validate_corpus",
    ),
    "errors": (
        "AugmentationError",
        "CorpusFormatError",
        "PipelineError",
        "ToolError",
        "TranslatorError",
        "ValidationError",
    ),
    "metrics": (
        "BleuDiff",
        "BleuReport",
        "BucketScore",
        "Judgment",
        "JudgmentTally",
        "average_runs",
        "bucketed_bleu",
        "corpus_bleu",
        "diff_by_bucket",
        "read_judgments",
        "report_from_csv",
        "report_to_csv",
        "tally_judgments",
        "write_judgments",
    ),
    "mix": ("RECIPES", "MixManifest", "MixRecipe", "build_mix", "mix_manifest", "write_mix"),
    "pipeline": ("PipelineConfig", "cmd_run", "cmd_validate"),
    "report": (
        "render_bucket_table",
        "render_diff_chart",
        "render_diff_csv",
        "render_judgment_table",
    ),
    "translate": (
        "Direction",
        "TranslatorSpec",
        "back_translate",
        "mock_spec",
        "self_train",
        "translate_file",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "mocks"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
