"""File-based subprocess contract for external translation systems.

A translator is any shell command that reads one sentence per line from
{IN} and writes exactly as many lines to {OUT}. Decoding settings (beam
size and the like) belong to the external command. The child runs with a
clean environment plus a small documented allowlist so results do not
depend on stray caller state.
"""

from __future__ import annotations

import contextlib
import enum
import os
import shlex
import signal
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .corpus import Corpus, Origin, line_problem, read_lines, scan_lines
from .errors import TranslatorError, ValidationError

PathLike = Union[str, Path]

# Environment passed through to translator subprocesses. Extra names can be
# listed (comma-separated) in BITEXTAUG_PASS_ENV.
ENV_ALLOWLIST = ("PATH", "HOME", "LANG", "LC_ALL", "LC_CTYPE", "TMPDIR", "PYTHONPATH")
PASS_ENV_VAR = "BITEXTAUG_PASS_ENV"


class Direction(enum.Enum):
    FORWARD = "forward"  # source language -> target language
    BACKWARD = "backward"  # target language -> source language


class TranslatorSpec(NamedTuple):
    command_template: str  # must contain {IN} and {OUT} exactly once each
    direction: Direction
    name: str = "translator"
    timeout: float = 600.0

    def validate(self) -> None:
        for placeholder in ("{IN}", "{OUT}"):
            n = self.command_template.count(placeholder)
            if n != 1:
                raise ValidationError(
                    f"translator {self.name!r}: template must contain {placeholder} "
                    f"exactly once, found {n}: {self.command_template!r}"
                )
        if self.timeout <= 0:
            raise ValidationError(f"translator {self.name!r}: timeout must be > 0")


def _child_env() -> dict[str, str]:
    env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
    extra = os.environ.get(PASS_ENV_VAR, "")
    for name in extra.split(","):
        name = name.strip()
        if name and name in os.environ:
            env[name] = os.environ[name]
    return env


def _count_lines(path: Path) -> int:
    return sum(1 for _ in scan_lines(path))


def translate_file(
    spec: TranslatorSpec,
    input_path: PathLike,
    output_path: Optional[PathLike] = None,
    seed: Optional[int] = None,
) -> Path:
    """Run the external command on a one-sentence-per-line file.

    The output must come back with exactly as many lines as the input.
    An optional {SEED} placeholder in the template is expanded when a seed
    is given (used for per-run decoding seeds). Returns the output path.
    """
    spec.validate()
    input_path = Path(input_path)
    if not input_path.is_file():
        raise ValidationError(f"translator input {input_path} does not exist")
    if output_path is None:
        output_path = input_path.with_name(f"{input_path.name}.{spec.name}.out")
    output_path = Path(output_path)

    command = spec.command_template.replace("{IN}", shlex.quote(str(input_path)))
    command = command.replace("{OUT}", shlex.quote(str(output_path)))
    if "{SEED}" in command:
        command = command.replace("{SEED}", str(seed if seed is not None else 0))

    # The command gets its own session, so that killing its process group
    # on timeout or interrupt stops the translator too, not only the shell.
    with subprocess.Popen(
        command,
        shell=True,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=spec.timeout)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise TranslatorError(
                    f"translator {spec.name!r} timed out after {spec.timeout}s: {command}"
                ) from exc
            raise
    if proc.returncode != 0:
        tail = (stderr or stdout or "").strip()[-2000:]
        raise TranslatorError(
            f"translator {spec.name!r} exited {proc.returncode}: {command}\n{tail}"
        )
    if not output_path.is_file():
        raise TranslatorError(f"translator {spec.name!r} produced no output file {output_path}")
    n_in = _count_lines(input_path)
    n_out = _count_lines(output_path)
    if n_in != n_out:
        raise TranslatorError(
            f"translator {spec.name!r} line-count mismatch: {n_in} input lines vs "
            f"{n_out} output lines"
        )
    return output_path


def _translated_lines(
    spec: TranslatorSpec, lines: Sequence[str], workdir: Optional[PathLike], label: str
) -> list[str]:
    with tempfile.TemporaryDirectory(dir=workdir, prefix="bitextaug-") as td:
        in_path = Path(td) / f"{label}.in"
        with open(in_path, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(line + "\n" for line in lines)
        out = read_lines(translate_file(spec, in_path, Path(td) / f"{label}.out"))
    for i, line in enumerate(out):
        problem = line_problem(line)
        if problem is not None:
            raise TranslatorError(f"translator {spec.name!r} output line {i + 1}: {problem}")
    return out


def back_translate(
    parallel: Corpus, backward: TranslatorSpec, workdir: Optional[PathLike] = None
) -> Corpus:
    """Pseudo pairs whose sources are machine translations of the targets.

    Target sentences pass through untouched (the very point of the
    technique: target-side diversity is preserved), so target lines of the
    result are byte-identical to the input's. Pair order is preserved.
    """
    _require_original(parallel, "back_translate")
    if backward.direction is not Direction.BACKWARD:
        raise ValidationError("back_translate needs a backward-direction translator")
    translated = _translated_lines(backward, parallel.targets, workdir, "bt")
    meta = {"origin": Origin.PSEUDO_BT.value, "translator": backward.name, "base": parallel.name}
    return Corpus(
        translated,
        parallel.targets,
        (Origin.PSEUDO_BT,) * len(parallel),
        f"{parallel.name}+bt",
        parallel.source_lang,
        parallel.target_lang,
        meta,
    )


def self_train(
    parallel: Corpus, forward: TranslatorSpec, workdir: Optional[PathLike] = None
) -> Corpus:
    """Pseudo pairs whose targets are machine translations of the sources.

    Source sentences pass through untouched; pair order is preserved.
    """
    _require_original(parallel, "self_train")
    if forward.direction is not Direction.FORWARD:
        raise ValidationError("self_train needs a forward-direction translator")
    translated = _translated_lines(forward, parallel.sources, workdir, "st")
    meta = {"origin": Origin.PSEUDO_ST.value, "translator": forward.name, "base": parallel.name}
    return Corpus(
        parallel.sources,
        translated,
        (Origin.PSEUDO_ST,) * len(parallel),
        f"{parallel.name}+st",
        parallel.source_lang,
        parallel.target_lang,
        meta,
    )


def _require_original(parallel: Corpus, op: str) -> None:
    if len(parallel) == 0:
        raise ValidationError(f"{op}: empty corpus")
    if parallel.origins.count(Origin.ORIGINAL) != len(parallel):
        bad = set(parallel.origins) - {Origin.ORIGINAL}
        raise ValidationError(
            f"{op} expects an original-origin corpus, found {sorted(o.value for o in bad)}"
        )


def mock_spec(
    mode: str,
    direction: Direction,
    max_tokens: int = 12,
    timeout: float = 120.0,
) -> TranslatorSpec:
    """TranslatorSpec invoking a bundled deterministic mock translator.

    Modes: "identity" copies lines through, "reverse" reverses the token
    order per line, "truncate" keeps only the first max_tokens tokens (a
    desk-scale stand-in for the short-output-on-long-input failure mode).
    """
    import sys

    if mode not in ("identity", "reverse", "truncate"):
        raise ValidationError(f"unknown mock translator mode {mode!r}")
    cmd = f"{shlex.quote(sys.executable)} -m bitextaug.mocks {mode} {{IN}} {{OUT}}"
    if mode == "truncate":
        cmd += f" --max-tokens {max_tokens}"
    return TranslatorSpec(cmd, direction, name=f"mock-{mode}", timeout=timeout)
