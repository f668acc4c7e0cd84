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

import dataclasses
import os
import shutil
from pathlib import Path
from typing import Optional, Union

from .augment import AugmentConfig, DEFAULT_MIN_CONCAT_LEN, DEFAULT_SEP_TOKEN
from .buckets import BucketSpec, parse_bucket_spec
from .corpus import Side, line_problem, load_parallel, read_lines, sample, scan_lines, write_sidecar
from .errors import PipelineError, ValidationError
from .metrics import BleuReport, average_runs, bucketed_bleu, report_to_csv
from .mix import RECIPES, MixRecipe, build_mix, write_mix
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
    sep_token: str = DEFAULT_SEP_TOKEN
    min_concat_len: int = DEFAULT_MIN_CONCAT_LEN
    length_side: str = "source"
    count_sep_in_length: bool = False
    max_attempts_factor: int = 100
    shuffle_output: bool = True
    buckets: str = "standard"
    forward_cmd: str = ""
    backward_cmd: str = ""
    timeout: float = 600.0
    source_lang: str = "src"
    target_lang: str = "tgt"
    n_order: int = 4
    smooth: bool = False

    _BOOL_FIELDS = ("count_sep_in_length", "shuffle_output", "smooth")

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_file(cls, path: PathLike) -> "PipelineConfig":
        config = cls()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
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
            setattr(self, key, seeds)
        elif key in self._BOOL_FIELDS:
            if value.lower() not in ("true", "false", "0", "1", "yes", "no"):
                raise ValidationError(f"{where}: bad boolean {value!r} for {key}")
            setattr(self, key, value.lower() in ("true", "1", "yes"))
        elif isinstance(current, bool):  # pragma: no cover - covered by _BOOL_FIELDS
            raise AssertionError
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


def _scan_parallel_files(
    source: str, target: str, sep_token: str, violations: list[str]
) -> Optional[int]:
    """Validate a file pair line by line; append violations; return line count."""
    for path in (source, target):
        if not Path(path).is_file():
            violations.append(f"{path}: file not found")
    if violations:
        return None
    counts = []
    for path in (source, target):
        n = 0
        try:
            for n, line in enumerate(scan_lines(path), start=1):
                problem = line_problem(line)
                if problem is not None:
                    violations.append(f"{path}:{n}: {problem}")
                elif sep_token and sep_token in line and sep_token in line.split():
                    violations.append(
                        f"{path}:{n}: contains reserved separator token {sep_token!r}"
                    )
        except UnicodeDecodeError as exc:
            violations.append(f"{path}: invalid UTF-8 ({exc})")
            return None
        counts.append(n)
    if counts[0] != counts[1]:
        violations.append(f"{source} vs {target}: line-count mismatch {counts[0]} vs {counts[1]}")
        return None
    return counts[0]


def cmd_validate(config: PipelineConfig, check_test: bool = True) -> list[str]:
    """Check files, token constraints, and translator templates.

    Returns the violation list; empty means clean.
    """
    violations: list[str] = []
    if not config.source or not config.target:
        violations.append("config: source and target files are required")
    else:
        n_train = _scan_parallel_files(config.source, config.target, config.sep_token, violations)
        if n_train is not None and config.base_size > n_train:
            violations.append(
                f"config: base_size {config.base_size} exceeds corpus size {n_train}"
            )
        if n_train is not None and config.base_size == 0 and n_train < 2:
            violations.append(f"config: training corpus has only {n_train} pairs")
    if check_test and (config.test_source or config.test_target):
        if not (config.test_source and config.test_target):
            violations.append("config: test_source and test_target must be given together")
        else:
            _scan_parallel_files(
                config.test_source, config.test_target, config.sep_token, violations
            )
    if config.recipe not in RECIPES:
        violations.append(f"config: unknown recipe {config.recipe!r}")
    needs_backward = config.recipe in ("vanilla+bt", "vanilla+bt+concat")
    if needs_backward and not config.backward_cmd:
        violations.append(f"config: recipe {config.recipe!r} requires backward_cmd")
    if config.recipe == "vanilla+st" and not config.forward_cmd:
        violations.append("config: recipe 'vanilla+st' requires forward_cmd")
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
    return violations


class _Lock:
    """One pipeline per output directory.

    The lock file holds the owner's PID. A lock whose owner no longer
    exists (a killed run) is broken once; a live owner, an owner of
    another user, or unreadable content keeps the directory locked.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self.fd: Optional[int] = None

    def _owner_is_dead(self) -> bool:
        try:
            pid = int(self.path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            return False
        if pid <= 0:  # 0 and negative PIDs name process groups, not one process
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # alive, run by another user
            pass
        return False

    def __enter__(self):
        for attempt in (1, 2):
            try:
                self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt == 2 or not self._owner_is_dead():
                    raise PipelineError(
                        f"output directory is locked by another run ({self.path}); "
                        "remove the lock file if that run is dead"
                    ) from None
                self.path.unlink(missing_ok=True)
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc_info):
        if self.fd is not None:
            os.close(self.fd)
            self.path.unlink(missing_ok=True)


def _quarantine(out_dir: Path, work: Path, stage: str) -> Path:
    qroot = out_dir / "quarantine"
    qroot.mkdir(parents=True, exist_ok=True)
    existing = [int(p.name.split("-", 1)[0]) for p in qroot.iterdir() if p.name[:4].isdigit()]
    number = max(existing, default=0) + 1
    qdir = qroot / f"{number:04d}-{stage}"
    work.rename(qdir)
    return qdir


def cmd_run(config: PipelineConfig) -> dict[str, Path]:
    """Run the full pipeline; returns a map of output names to paths.

    Stages: validate, load, sample, mix, decode, score, report. On
    failure the staging directory moves to quarantine/<NNNN>-<stage> and
    the error is re-raised; prior successful outputs are never touched by
    quarantining.
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
            _quarantine(out_dir, work, "stale")
        work.mkdir()
        stage = "validate"
        try:
            violations = cmd_validate(config)
            if violations:
                raise ValidationError(
                    "validation failed:\n" + "\n".join(f"  {v}" for v in violations)
                )
            (work / "resolved.cfg").write_text(config.to_text(), encoding="utf-8")

            stage = "load"
            train = load_parallel(
                config.source,
                config.target,
                name="train",
                source_lang=config.source_lang,
                target_lang=config.target_lang,
            )
            test = load_parallel(
                config.test_source,
                config.test_target,
                name="test",
                source_lang=config.source_lang,
                target_lang=config.target_lang,
            )

            stage = "sample"
            base_size = config.base_size or len(train)
            if base_size < len(train):
                train = sample(train, base_size, config.sample_seed)

            stage = "mix"
            recipe = MixRecipe(
                name=config.recipe,
                base_size=base_size,
                seed=config.concat_seed,
                shuffle_output=config.shuffle_output,
                shuffle_seed=None if config.shuffle_seed < 0 else config.shuffle_seed,
            )
            mixed = build_mix(
                recipe,
                train,
                translators=config.translators(),
                augment=config.augment_config(),
                workdir=work,
            )
            mix_dir = work / "mix"
            write_mix(mixed, mix_dir, sep_token=config.sep_token)

            stage = "decode"
            buckets = config.bucket_spec()
            forward = config.translators()[Direction.FORWARD]
            runs_dir = work / "runs"
            reports: list[BleuReport] = []
            for seed in config.run_seeds:
                run_dir = runs_dir / f"run-{seed}"
                run_dir.mkdir(parents=True)
                hyp_path = translate_file(
                    forward, Path(config.test_source), run_dir / "hyp.txt", seed=seed
                )
                stage = "score"
                hyps = read_lines(hyp_path)
                if len(hyps) != len(test):
                    raise PipelineError(
                        f"run {seed}: decoder returned {len(hyps)} lines for {len(test)} test items"
                    )
                rep = bucketed_bleu(
                    hyps, test.targets, test.sources, buckets,
                    n_order=config.n_order, smooth=config.smooth,
                )
                (run_dir / "report.csv").write_text(report_to_csv(rep), encoding="utf-8")
                reports.append(rep)
                stage = "decode"

            stage = "report"
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
                    "base_size": str(base_size),
                    "sample_seed": str(config.sample_seed),
                    "concat_seed": str(config.concat_seed),
                    "shuffle_seed": str(
                        config.shuffle_seed if config.shuffle_seed >= 0 else config.concat_seed + 2
                    ),
                    "run_seeds": ",".join(str(s) for s in config.run_seeds),
                    "n_runs": str(len(config.run_seeds)),
                    "buckets": config.buckets,
                    "sep_token": config.sep_token,
                    "min_concat_len": str(config.min_concat_len),
                    "n_order": str(config.n_order),
                    "smooth": str(config.smooth).lower(),
                    "prng": "numpy-pcg64",
                },
            )
        except BaseException:
            _quarantine(out_dir, work, stage)
            raise

        # success: promote staged outputs, replacing prior successful ones
        outputs: dict[str, Path] = {}
        for child in sorted(work.iterdir()):
            dest = out_dir / child.name
            if dest.is_dir():
                shutil.rmtree(dest)
            elif dest.exists():
                dest.unlink()
            child.rename(dest)
            outputs[child.name] = dest
        work.rmdir()
    return outputs
