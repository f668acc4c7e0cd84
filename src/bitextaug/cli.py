"""Command-line entry point wiring the toolkit into one executable.

Subcommands: validate, sample, split, concat, bt, st, mix, bleu, diff,
judge, run. Exit codes: 0 success, 1 validation failure, 2 pipeline
failure, 3 translator failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .augment import AugmentConfig, concat_augment
from .buckets import parse_bucket_spec
from .corpus import (
    Corpus,
    Origin,
    holdout_split,
    lang_code_problems,
    load_parallel,
    read_lines,
    sample as sample_corpus,
    save_parallel,
    write_sidecar,
)
from .errors import ToolError, TranslatorError, ValidationError
from .forked import ending_signals
from .metrics import (
    bucketed_bleu,
    corpus_bleu,
    diff_by_bucket,
    read_judgments,
    report_from_csv,
    report_to_csv,
    tally_judgments,
)
from .mix import RECIPES, MixRecipe, build_mix, write_mix
from .pipeline import PipelineConfig, cmd_run, cmd_validate
from .report import render_diff_chart, render_diff_csv, render_judgment_table
from .translate import Direction, TranslatorSpec, back_translate, self_train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PIPELINE = 2
EXIT_TRANSLATOR = 3

# the defaults of the flags that set a pipeline config key
_DEFAULTS = PipelineConfig()


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True, help="source-side file, one sentence per line")
    p.add_argument("--target", required=True, help="target-side file, aligned line by line")
    p.add_argument("--source-lang", default=_DEFAULTS.source_lang)
    p.add_argument("--target-lang", default=_DEFAULTS.target_lang)


def _add_augment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sep-token", default=_DEFAULTS.sep_token)
    p.add_argument("--min-len", type=int, default=_DEFAULTS.min_concat_len,
                   help="minimum post-concatenation length")
    p.add_argument("--length-side", choices=["source", "target"], default=_DEFAULTS.length_side)
    p.add_argument("--count-sep", action="store_true", help="count the separator toward lengths")
    p.add_argument("--max-attempts-factor", type=int, default=_DEFAULTS.max_attempts_factor)


def _load_pair(args, origin: Origin = Origin.ORIGINAL) -> Corpus:
    # the codes name the written files, so a bad one is refused before any work
    problems = lang_code_problems(args.source_lang, args.target_lang)
    if problems:
        raise ValidationError(problems[0])
    return load_parallel(
        args.source,
        args.target,
        origin=origin,
        source_lang=args.source_lang,
        target_lang=args.target_lang,
    )


def _save_with_sidecar(corpus: Corpus, prefix: str) -> None:
    src = f"{prefix}.{corpus.source_lang}"
    tgt = f"{prefix}.{corpus.target_lang}"
    save_parallel(corpus, src, tgt)
    write_sidecar(f"{prefix}.meta", {"name": corpus.name, "pairs": str(len(corpus)), **corpus.meta})


def _augment_config(args) -> AugmentConfig:
    """The concat settings of the mix and concat flags, as a pipeline config maps them."""
    return PipelineConfig(
        concat_seed=args.seed,
        sep_token=args.sep_token,
        min_concat_len=args.min_len,
        length_side=args.length_side,
        count_sep_in_length=args.count_sep,
        max_attempts_factor=args.max_attempts_factor,
    ).augment_config()


def _translators(args) -> dict[Direction, TranslatorSpec]:
    """The translators of the bt, st and mix flags, as a pipeline config maps them."""
    return PipelineConfig(
        forward_cmd=getattr(args, "forward_cmd", ""),
        backward_cmd=getattr(args, "backward_cmd", ""),
        timeout=args.timeout,
    ).translators()


def _config_from_args(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for key in PipelineConfig.field_names():
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            config.set_key(key, value, where=f"--{key.replace('_', '-')}")
    return config


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags below override it")
    for key in PipelineConfig.field_names():
        p.add_argument(
            f"--{key.replace('_', '-')}",
            dest=f"cfg_{key}",
            metavar="VALUE",
            help=f"override config key {key}",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitextaug",
        description=(
            "Parallel-corpus augmentation by sentence concatenation and "
            "back-translation, with length-bucketed BLEU evaluation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check corpus files, tokens, and translator templates")
    _add_config_args(p)

    p = sub.add_parser("sample", help="uniform sample without replacement, order preserved")
    _add_pair_args(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("split", help="disjoint train / held-out pseudo-test split")
    _add_pair_args(p)
    p.add_argument("--train-n", type=int, required=True)
    p.add_argument("--test-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("concat", help="generate concatenated pairs from a pool")
    _add_pair_args(p)
    _add_augment_args(p)
    p.add_argument("--count", type=int, required=True, help="number of output pairs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--origin", choices=[o.value for o in Origin if o is not Origin.CONCAT],
                   default="original", help="origin tag of the pool")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("bt", help="back-translate: pseudo sources from original targets")
    _add_pair_args(p)
    p.add_argument("--backward-cmd", required=True, help="command with {IN} and {OUT}")
    p.add_argument("--timeout", type=float, default=_DEFAULTS.timeout)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("st", help="self-train: pseudo targets from original sources")
    _add_pair_args(p)
    p.add_argument("--forward-cmd", required=True, help="command with {IN} and {OUT}")
    p.add_argument("--timeout", type=float, default=_DEFAULTS.timeout)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("mix", help="assemble a training-data recipe")
    _add_pair_args(p)
    _add_augment_args(p)
    p.add_argument("--recipe", choices=list(RECIPES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--forward-cmd", default="")
    p.add_argument("--backward-cmd", default="")
    p.add_argument("--timeout", type=float, default=_DEFAULTS.timeout)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("bleu", help="corpus BLEU, bucketed when sources are given")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--src", help="source file for length bucketing")
    p.add_argument("--buckets", default=_DEFAULTS.buckets,
                   help="standard | extended | pairwise | comma-separated bounds")
    p.add_argument("--n-order", type=int, default=_DEFAULTS.n_order)
    p.add_argument("--smooth", action="store_true", help="add-one smoothing on higher orders")
    p.add_argument("--out-csv")

    p = sub.add_parser("diff", help="per-bucket score difference of two report CSVs")
    p.add_argument("--a", required=True, help="report CSV of the first system")
    p.add_argument("--b", required=True, help="report CSV of the second system")
    p.add_argument("--name-a", default="a")
    p.add_argument("--name-b", default="b")
    p.add_argument("--out-csv")
    p.add_argument("--out-svg")

    p = sub.add_parser("judge", help="tally a pairwise human-judgment file")
    p.add_argument("--judgments", required=True, help="TSV: item_id, source_len, dimension, verdict")
    p.add_argument("--buckets", default="pairwise")
    p.add_argument("--out-md")

    p = sub.add_parser("run", help="full pipeline: mix, decode test set, score, report")
    _add_config_args(p)

    return parser


def _cmd_validate(args) -> int:
    config = _config_from_args(args)
    violations = cmd_validate(config)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)")
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _cmd_sample(args) -> int:
    corpus = _load_pair(args)
    out = sample_corpus(corpus, args.n, args.seed)
    _save_with_sidecar(out, args.out_prefix)
    print(f"wrote {len(out)} pairs to {args.out_prefix}.*")
    return EXIT_OK


def _cmd_split(args) -> int:
    corpus = _load_pair(args)
    train, heldout = holdout_split(corpus, args.train_n, args.test_n, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_with_sidecar(train, str(out_dir / "train"))
    _save_with_sidecar(heldout, str(out_dir / "heldout"))
    print(f"wrote {len(train)} train and {len(heldout)} held-out pairs to {out_dir}")
    return EXIT_OK


def _cmd_concat(args) -> int:
    pool = _load_pair(args, origin=Origin(args.origin))
    out = concat_augment(pool, _augment_config(args)._replace(target_count=args.count))
    _save_with_sidecar(out, args.out_prefix)
    print(
        f"wrote {len(out)} concatenated pairs to {args.out_prefix}.* "
        f"({out.meta['rejected_short']} draws rejected below length {args.min_len})"
    )
    return EXIT_OK


def _cmd_bt(args) -> int:
    corpus = _load_pair(args)
    out = back_translate(corpus, _translators(args)[Direction.BACKWARD])
    _save_with_sidecar(out, args.out_prefix)
    print(f"wrote {len(out)} back-translated pairs to {args.out_prefix}.*")
    return EXIT_OK


def _cmd_st(args) -> int:
    corpus = _load_pair(args)
    out = self_train(corpus, _translators(args)[Direction.FORWARD])
    _save_with_sidecar(out, args.out_prefix)
    print(f"wrote {len(out)} self-trained pairs to {args.out_prefix}.*")
    return EXIT_OK


def _cmd_mix(args) -> int:
    corpus = _load_pair(args)
    recipe = MixRecipe(
        name=args.recipe,
        base_size=len(corpus),
        seed=args.seed,
        shuffle_output=not args.no_shuffle,
    )
    mixed = build_mix(recipe, corpus, translators=_translators(args), augment=_augment_config(args))
    manifest = write_mix(mixed, args.out_dir, sep_token=args.sep_token)
    print(f"wrote {len(mixed)} pairs to {args.out_dir} (manifest: {manifest})")
    return EXIT_OK


def _cmd_bleu(args) -> int:
    hyps = read_lines(args.hyp)
    refs = read_lines(args.ref)
    if args.src:
        srcs = read_lines(args.src)
        report = bucketed_bleu(
            hyps, refs, srcs, parse_bucket_spec(args.buckets),
            n_order=args.n_order, smooth=args.smooth,
        )
        for label, bs in report.per_bucket.items():
            shown = "-" if bs.score is None else f"{bs.score:.1f}"
            print(f"{label}\t{bs.count}\t{shown}")
    else:
        report = corpus_bleu(hyps, refs, n_order=args.n_order, smooth=args.smooth)
    print(f"BLEU = {report.overall:.1f} (BP = {report.bp:.3f})")
    if args.out_csv:
        Path(args.out_csv).write_text(report_to_csv(report), encoding="utf-8")
    return EXIT_OK


def _cmd_diff(args) -> int:
    rep_a = report_from_csv("\n".join(read_lines(args.a)))
    rep_b = report_from_csv("\n".join(read_lines(args.b)))
    diff = diff_by_bucket(rep_a, rep_b)
    for label, value in diff.per_bucket.items():
        print(f"{label}\t{'-' if value is None else f'{value:+.1f}'}")
    print(f"overall\t{diff.overall:+.1f}")
    if args.out_csv:
        Path(args.out_csv).write_text(render_diff_csv(diff), encoding="utf-8")
    if args.out_svg:
        svg = render_diff_chart(
            [(f"{args.name_a} - {args.name_b}", diff.per_bucket)],
            title=f"{args.name_a} minus {args.name_b}",
        )
        Path(args.out_svg).write_text(svg, encoding="utf-8")
    return EXIT_OK


def _cmd_judge(args) -> int:
    judgments = read_judgments(args.judgments)
    tally = tally_judgments(judgments, parse_bucket_spec(args.buckets))
    table = render_judgment_table(tally)
    print(table, end="")
    if args.out_md:
        Path(args.out_md).write_text(table, encoding="utf-8")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    outputs = cmd_run(config)
    for name in sorted(outputs):
        print(f"{name}: {outputs[name]}")
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "sample": _cmd_sample,
    "split": _cmd_split,
    "concat": _cmd_concat,
    "bt": _cmd_bt,
    "st": _cmd_st,
    "mix": _cmd_mix,
    "bleu": _cmd_bleu,
    "diff": _cmd_diff,
    "judge": _cmd_judge,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with ending_signals():
        try:
            return _HANDLERS[args.command](args)
        except TranslatorError as exc:
            print(f"translator error: {exc}", file=sys.stderr)
            return EXIT_TRANSLATOR
        except ValidationError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except ToolError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
