"""The package's public names, what importing it pulls in, and where it splits tokens."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import bitextaug as bx

# Each public name under the module that defines it.
DEFINED_IN = {
    "augment": ("AugmentConfig", "concat_augment", "concat_pair", "measure_concat_mean"),
    "buckets": (
        "EXTENDED_BUCKETS", "PAIRWISE_BUCKETS", "STANDARD_BUCKETS", "BucketSpec",
        "parse_bucket_spec",
    ),
    "corpus": (
        "Corpus", "LengthStats", "Origin", "SentencePair", "Side", "holdout_split",
        "length_stats", "load_parallel", "read_lines", "sample", "save_parallel",
        "validate_corpus",
    ),
    "errors": (
        "AugmentationError", "CorpusFormatError", "PipelineError", "ToolError",
        "TranslatorError", "ValidationError",
    ),
    "metrics": (
        "BleuDiff", "BleuReport", "BucketScore", "Judgment", "JudgmentTally", "average_runs",
        "bucketed_bleu", "corpus_bleu", "diff_by_bucket", "read_judgments", "report_from_csv",
        "report_to_csv", "tally_judgments", "write_judgments",
    ),
    "mix": ("RECIPES", "MixManifest", "MixRecipe", "build_mix", "mix_manifest", "write_mix"),
    "pipeline": ("PipelineConfig", "cmd_run", "cmd_validate"),
    "report": (
        "render_bucket_table", "render_diff_chart", "render_diff_csv", "render_judgment_table",
    ),
    "translate": (
        "Direction", "TranslatorSpec", "back_translate", "mock_spec", "self_train",
        "translate_file",
    ),
}
PUBLIC_NAMES = sorted(name for names in DEFINED_IN.values() for name in names)


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 60
    assert bx.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(bx))


@pytest.mark.parametrize(
    "module,name", [(module, name) for module, names in DEFINED_IN.items() for name in names]
)
def test_name_is_the_defining_modules_object(module, name):
    assert getattr(bx, name) is getattr(importlib.import_module(f"bitextaug.{module}"), name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bitextaug import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(bx, name) for name in PUBLIC_NAMES)


def test_submodule_is_an_attribute_of_the_package():
    code = "import bitextaug; print(bitextaug.metrics.__name__, bitextaug.__version__)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["bitextaug.metrics", bx.__version__]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bx, "no_such_name")
    assert not hasattr(bx, "sys")


NO_NUMPY = "import sys; assert 'numpy' not in sys.modules, sorted(sys.modules)"


def test_package_and_mocks_import_without_numpy():
    subprocess.run(
        [sys.executable, "-c", f"import bitextaug, bitextaug.mocks; {NO_NUMPY}"], check=True
    )


def test_mock_translator_runs_without_numpy(tmp_path):
    (tmp_path / "in.txt").write_text("a b c\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bitextaug.mocks", "reverse",
         str(tmp_path / "in.txt"), str(tmp_path / "out.txt")],
        capture_output=True, text=True, check=True,
    )
    imported = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}
    assert "bitextaug" in imported
    assert "numpy" not in imported
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "c b a\n"


# corpus owns the token rule; mocks plays a translator, takes no measurement
# and must start without numpy, so it splits on its own
MAY_SPLIT_ON_WHITESPACE = {"corpus.py", "mocks.py"}


def whitespace_splits(tree):
    """The lines of the ``x.split()`` calls without a separator and ``str.split`` references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "split":
            seps = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "sep"]
            if not seps or isinstance(seps[0], ast.Constant) and seps[0].value is None:
                yield node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) == ("str", "split"):
                yield node.lineno


def test_only_corpus_splits_on_whitespace():
    package = Path(bx.__file__).parent
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name not in MAY_SPLIT_ON_WHITESPACE
        for lineno in whitespace_splits(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], "split tokens with bitextaug.corpus.tokenize instead"


def test_whitespace_split_finder_sees_every_form():
    code = "a.split()\nb.split(None)\nc.split(maxsplit=1)\nmap(str.split, d)\ne.split(',')\n"
    assert sorted(whitespace_splits(ast.parse(code))) == [1, 2, 3, 4]
