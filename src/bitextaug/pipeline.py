"""End-to-end experiment pipeline: ingest, augment, mix, decode, score, report.

A pipeline run is driven by a flat key=value config file (CLI flags
override individual keys) and materializes everything under one output
directory: the resolved config snapshot, the mixed training corpus with
its manifest, per-run hypothesis files and score reports, the averaged
report, a Markdown score table, and an SVG chart. A failed stage moves
whatever was staged so far into a uniquely numbered quarantine
subdirectory instead of leaving half-written outputs in place.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import shutil
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .augment import AugmentConfig
from .buckets import BucketSpec, parse_bucket_spec
from .corpus import (
    PRNG_ID,
    Corpus,
    Origin,
    Side,
    _Lines,
    lang_code_problems,
    read_lines,
    read_parallel,
    sample,
    write_sidecar,
)
from .errors import PipelineError, ValidationError
from .forked import ending_signals, held_signals, map_forked
from .metrics import BleuReport, average_runs, bucketed_bleu_runs, report_to_csv
from .mix import _RECIPE_PARTS, RECIPES, MixRecipe, build_mix, write_mix
from .report import render_bucket_table, render_diff_chart
from .translate import Direction, TranslatorSpec, translate_file

PathLike = Union[str, Path]


@dataclasses.dataclass
class PipelineConfig:
    """Resolved experiment parameters; every field maps to a config key."""

    source: str = ""
    target: str = ""
    test_source: str = ""
    test_target: str = ""
    out_dir: str = ""
    recipe: str = "vanilla"
    base_size: int = 0  # 0 means use the whole training corpus
    sample_seed: int = 1
    concat_seed: int = 1
    shuffle_seed: int = -1  # -1 derives concat_seed + 2
    run_seeds: tuple[int, ...] = (1, 2, 3)
    sep_token: str = AugmentConfig._field_defaults["sep_token"]
    min_concat_len: int = AugmentConfig._field_defaults["min_concat_len"]
    length_side: str = AugmentConfig._field_defaults["length_side"].value
    count_sep_in_length: bool = AugmentConfig._field_defaults["count_sep_in_length"]
    max_attempts_factor: int = AugmentConfig._field_defaults["max_attempts_factor"]
    shuffle_output: bool = True
    buckets: str = "standard"
    forward_cmd: str = ""
    backward_cmd: str = ""
    timeout: float = TranslatorSpec._field_defaults["timeout"]
    source_lang: str = "src"
    target_lang: str = "tgt"
    n_order: int = 4
    smooth: bool = False

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_file(cls, path: PathLike) -> "PipelineConfig":
        config = cls()
        for lineno, line in enumerate(read_lines(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            config.set_key(key.strip(), value.strip(), where=f"{path}:{lineno}")
        return config

    def set_key(self, key: str, value: str, where: str = "override") -> None:
        if key not in self.field_names():
            raise ValidationError(f"{where}: unknown config key {key!r}")
        current = getattr(self, key)
        if key == "run_seeds":
            try:
                seeds = tuple(int(s) for s in value.split(",") if s.strip())
            except ValueError as exc:
                raise ValidationError(f"{where}: bad run_seeds {value!r}") from exc
            if not seeds:
                raise ValidationError(f"{where}: run_seeds must list at least one seed")
            if len(set(seeds)) < len(seeds):
                raise ValidationError(f"{where}: run_seeds repeats seed {max(seeds, key=seeds.count)}")
            setattr(self, key, seeds)
        elif isinstance(current, bool):
            if value.lower() not in ("true", "false", "0", "1", "yes", "no"):
                raise ValidationError(f"{where}: bad boolean {value!r} for {key}")
            setattr(self, key, value.lower() in ("true", "1", "yes"))
        elif isinstance(current, int):
            try:
                setattr(self, key, int(value))
            except ValueError as exc:
                raise ValidationError(f"{where}: bad integer {value!r} for {key}") from exc
        elif isinstance(current, float):
            try:
                setattr(self, key, float(value))
            except ValueError as exc:
                raise ValidationError(f"{where}: bad number {value!r} for {key}") from exc
        else:
            setattr(self, key, value)

    def to_text(self) -> str:
        lines = []
        for name in self.field_names():
            value = getattr(self, name)
            if name == "run_seeds":
                value = ",".join(str(s) for s in value)
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"

    def augment_config(self) -> AugmentConfig:
        try:
            side = Side(self.length_side.lower())
        except ValueError:
            raise ValidationError(
                f"length_side must be 'source' or 'target', got {self.length_side!r}"
            ) from None
        return AugmentConfig(
            seed=self.concat_seed,
            sep_token=self.sep_token,
            min_concat_len=self.min_concat_len,
            target_count=0,  # set per pool by build_mix
            length_side=side,
            count_sep_in_length=self.count_sep_in_length,
            max_attempts_factor=self.max_attempts_factor,
        )

    def translators(self) -> dict[Direction, TranslatorSpec]:
        out: dict[Direction, TranslatorSpec] = {}
        if self.forward_cmd:
            out[Direction.FORWARD] = TranslatorSpec(
                self.forward_cmd, Direction.FORWARD, name="forward", timeout=self.timeout
            )
        if self.backward_cmd:
            out[Direction.BACKWARD] = TranslatorSpec(
                self.backward_cmd, Direction.BACKWARD, name="backward", timeout=self.timeout
            )
        return out

    def bucket_spec(self) -> BucketSpec:
        return parse_bucket_spec(self.buckets)


# one file pair's columns as read_parallel returns them; usable when the pair has no violation
_Columns = tuple[Optional[list[str]], Optional[list[str]]]


def _check_inputs(config: PipelineConfig) -> tuple[list[str], dict[str, _Columns]]:
    """cmd_validate's violations, plus the "train" and "test" columns it read."""
    violations: list[str] = []
    columns: dict[str, _Columns] = {}
    if not config.source or not config.target:
        violations.append("config: source and target files are required")
    else:
        sources, targets, found = read_parallel(config.source, config.target, config.sep_token)
        violations += found
        columns["train"] = sources, targets
        if sources is not None and targets is not None and len(sources) == len(targets):
            n_train = len(sources)
            if config.base_size > n_train:
                violations.append(
                    f"config: base_size {config.base_size} exceeds corpus size {n_train}"
                )
            if config.base_size == 0 and n_train < 2:
                violations.append(f"config: training corpus has only {n_train} pairs")
    if config.test_source or config.test_target:
        if not (config.test_source and config.test_target):
            violations.append("config: test_source and test_target must be given together")
        else:
            sources, targets, found = read_parallel(
                config.test_source, config.test_target, config.sep_token
            )
            violations += found
            columns["test"] = sources, targets
    if config.base_size < 0 or config.base_size == 1:
        violations.append(f"config: base_size must be 0 (all pairs) or >= 2, got {config.base_size}")
    if config.sample_seed < 0:
        violations.append(f"config: sample_seed must be >= 0, got {config.sample_seed}")
    if config.n_order < 1:
        violations.append(f"config: n_order must be >= 1, got {config.n_order}")
    violations += [f"config: {p}" for p in lang_code_problems(config.source_lang, config.target_lang)]
    if config.recipe not in RECIPES:
        violations.append(f"config: unknown recipe {config.recipe!r}")
    needed = _RECIPE_PARTS.get(config.recipe, (None, 0))[0]
    if needed is not None and needed not in config.translators():
        violations.append(f"config: recipe {config.recipe!r} requires {needed.value}_cmd")
    for label, template in (("forward_cmd", config.forward_cmd), ("backward_cmd", config.backward_cmd)):
        if template:
            try:
                TranslatorSpec(template, Direction.FORWARD, name=label, timeout=config.timeout).validate()
            except ValidationError as exc:
                violations.append(f"config: {exc}")
    try:
        config.bucket_spec()
    except ValidationError as exc:
        violations.append(f"config: {exc}")
    try:
        config.augment_config().validate()
    except ValidationError as exc:
        violations.append(f"config: {exc}")
    return violations, columns


def cmd_validate(config: PipelineConfig) -> list[str]:
    """Check files, token constraints, and translator templates.

    Returns the violation list; empty means clean.
    """
    return _check_inputs(config)[0]


def _input_corpus(config: PipelineConfig, name: str, columns: _Columns) -> Corpus:
    """A file pair that _check_inputs read cleanly, as a corpus of original pairs.

    _check_inputs rejected every line that holds sep_token, so each column
    records that no line holds it.
    """
    n = len(columns[0])
    none_hold = {config.sep_token: np.zeros(n, bool)}
    sources, targets = (_Lines([lines], facts=none_hold) for lines in columns)
    return Corpus(sources, targets, (Origin.ORIGINAL,) * n, name, config.source_lang, config.target_lang)


class _Lock:
    """One pipeline per output directory: an exclusive, non-blocking flock on out_dir/.lock.

    Forked workers inherit the descriptor, so the lock is held until the
    last process of the run ends, however it ends. A .lock file that no
    process holds is a harmless leftover of a killed run.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self.fd: Optional[int] = None

    def __enter__(self):
        import fcntl  # POSIX only, and only run takes the lock
        while self.fd is None:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # an owner unlinks the file on its way out, maybe after this opened it
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self.fd = fd
            except BlockingIOError:
                raise PipelineError(f"output directory is locked by another run ({self.path})") from None
            except FileNotFoundError:
                pass
            finally:
                if self.fd != fd:
                    os.close(fd)
        return self

    def __exit__(self, *exc_info):
        self.path.unlink(missing_ok=True)
        os.close(self.fd)


def _quarantine(out_dir: Path, work: Path, stage: str) -> Path:
    qroot = out_dir / "quarantine"
    qroot.mkdir(parents=True, exist_ok=True)
    numbers = (re.fullmatch(r"([0-9]{4,})-.*", p.name) for p in qroot.iterdir())
    number = max((int(m[1]) for m in numbers if m), default=0) + 1
    qdir = qroot / f"{number:04d}-{stage}"
    work.rename(qdir)
    return qdir


@contextlib.contextmanager
def _stage(name: str):
    """Names the stage an exception leaving the block failed in, unless an inner stage did.

    The name rides on the exception, which pickles with its __dict__, so it crosses a fork.
    """
    try:
        yield
    except BaseException as exc:
        if not hasattr(exc, "_bitextaug_stage"):
            exc._bitextaug_stage = name
        raise


def _decode_and_score(config: PipelineConfig, test: Corpus, runs_dir: Path) -> list[BleuReport]:
    """The test side of a run: decode the test set once per run seed, then score every run.

    Writes runs/run-<seed>/hyp.txt and report.csv and returns the reports.
    Each decode's line count is checked (a score failure) before the next starts.
    """
    with _stage("score"):
        decodes: list[list[str]] = []
        for seed in config.run_seeds:
            run_dir = runs_dir / f"run-{seed}"
            with _stage("decode"):
                run_dir.mkdir(parents=True)
                forward = config.translators()[Direction.FORWARD]
                hyps = translate_file(forward, Path(config.test_source), run_dir / "hyp.txt", seed=seed)
            if len(hyps) != len(test):
                raise PipelineError(
                    f"run {seed}: decoder returned {len(hyps)} lines for {len(test)} test items"
                )
            decodes.append(hyps)

        reports = bucketed_bleu_runs(
            decodes, test.targets, test.sources, config.bucket_spec(),
            n_order=config.n_order, smooth=config.smooth,
        )
        for seed, rep in zip(config.run_seeds, reports):
            (runs_dir / f"run-{seed}" / "report.csv").write_text(
                report_to_csv(rep), encoding="utf-8"
            )
        return reports


@ending_signals()
def cmd_run(config: PipelineConfig) -> dict[str, Path]:
    """Run the full pipeline; returns a map of output names to paths.

    Stages: validate, load, sample, mix, decode, score, report. After
    load, the train side (sample, mix) runs in this process while the test
    side (decode, score) runs in a forked child; report follows both. On
    failure the staging directory moves to quarantine/<NNNN>-<stage> and
    the error is re-raised; when both sides fail, the train side's error
    and stage win. Prior successful outputs are never touched by
    quarantining, and are deleted only once the new ones are all in place;
    a .work that a stopped deletion left holding only them is deleted by the
    next run, and any other .work is quarantined as stale.
    Every process of the run holds out_dir's lock.

    SIGTERM and SIGHUP, where they would end the process at once, are
    turned into an exception while the run runs, so a job scheduler's
    timeout or a closed terminal stops it the way an interrupt does: the
    translators and the forked test side are stopped and reaped, the
    staging directory is quarantined under the running stage, and the lock
    is released. The process then ends by that signal. SIGTERM sent to the
    forked test side ends the run the same way, quarantined under its stage.
    """
    if not config.out_dir:
        raise ValidationError("config: out_dir is required")
    if not (config.test_source and config.test_target):
        raise ValidationError("config: run requires test_source and test_target")
    if not config.forward_cmd:
        raise ValidationError("config: run requires forward_cmd to decode the test set")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with _Lock(out_dir):
        work = out_dir / ".work"
        if work.exists():  # leftover from a killed run
            leftovers = [p.name for p in work.iterdir()]
            if leftovers and all(name.startswith(".") for name in leftovers):
                shutil.rmtree(work)  # only prior outputs, moved aside once every new one was in place
            else:
                _quarantine(out_dir, work, "stale")
        work.mkdir()
        try:
            with _stage("validate"):
                violations, columns = _check_inputs(config)
                if violations:
                    raise ValidationError(
                        "validation failed:\n" + "\n".join(f"  {v}" for v in violations)
                    )
                (work / "resolved.cfg").write_text(config.to_text(), encoding="utf-8")

            with _stage("load"):
                test = _input_corpus(config, "test", columns.pop("test"))
                recipe = MixRecipe(
                    name=config.recipe,
                    base_size=config.base_size or len(columns["train"][0]),
                    seed=config.concat_seed,
                    shuffle_output=config.shuffle_output,
                    shuffle_seed=None if config.shuffle_seed < 0 else config.shuffle_seed,
                )

            def sample_and_mix() -> None:
                with _stage("sample"):  # the unsampled pairs live in this frame only
                    train = _input_corpus(config, "train", columns.pop("train"))
                    if recipe.base_size < len(train):
                        train = sample(train, recipe.base_size, config.sample_seed)  # frees them
                with _stage("mix"):
                    mixed = build_mix(
                        recipe,
                        train,
                        translators=config.translators(),
                        augment=config.augment_config(),
                        workdir=work,
                    )
                    write_mix(mixed, work / "mix", sep_token=config.sep_token)

            _, reports = map_forked(
                lambda side: side(),
                [sample_and_mix, lambda: _decode_and_score(config, test, work / "runs")],
                worker="test-side worker",
                result="reports",
            )

            with _stage("report"):
                averaged = average_runs(reports)
                report_dir = work / "report"
                report_dir.mkdir()
                (report_dir / "averaged.csv").write_text(report_to_csv(averaged), encoding="utf-8")
                table = render_bucket_table([(config.recipe, averaged)])
                (report_dir / "bucket_table.md").write_text(table, encoding="utf-8")
                scores = {label: bs.score for label, bs in averaged.per_bucket.items()}
                svg = render_diff_chart(
                    [(config.recipe, scores)], value_label="BLEU", title="Scores by source length"
                )
                (report_dir / "scores.svg").write_text(svg, encoding="utf-8")
                write_sidecar(
                    report_dir / "metadata.txt",
                    {
                        "recipe": config.recipe,
                        "base_size": str(recipe.base_size),
                        "sample_seed": str(config.sample_seed),
                        "concat_seed": str(config.concat_seed),
                        "shuffle_seed": str(recipe.derived_shuffle_seed),
                        "run_seeds": ",".join(str(s) for s in config.run_seeds),
                        "n_runs": str(len(config.run_seeds)),
                        "buckets": config.buckets,
                        "sep_token": config.sep_token,
                        "min_concat_len": str(config.min_concat_len),
                        "n_order": str(config.n_order),
                        "smooth": str(config.smooth).lower(),
                        "prng": PRNG_ID,
                    },
                )
        except BaseException as exc:  # one raised outside every stage ended the wait for the test side
            _quarantine(out_dir, work, getattr(exc, "_bitextaug_stage", "decode"))
            raise

        # success: promote staged outputs, moving each prior one aside into .work
        # as .<name>; an interrupt or an ending signal waits until all are in place
        outputs: dict[str, Path] = {}
        with held_signals():
            for child in sorted(work.iterdir()):
                dest = out_dir / child.name
                if dest.exists():
                    dest.rename(work / f".{child.name}")
                child.rename(dest)
                outputs[child.name] = dest
        shutil.rmtree(work)  # the prior outputs
    return outputs
