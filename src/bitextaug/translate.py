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
import functools
import os
import shlex
import signal
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .corpus import Corpus, Origin, Side, line_problem, read_lines, scan_lines, write_lines
from .errors import CorpusFormatError, TranslatorError, ValidationError
from .forked import held_signals

PathLike = Union[str, Path]

# Environment passed through to translator subprocesses. Extra names can be
# listed (comma-separated) in BITEXTAUG_PASS_ENV.
ENV_ALLOWLIST = ("PATH", "HOME", "LANG", "LC_ALL", "LC_CTYPE", "TMPDIR", "PYTHONPATH")
PASS_ENV_VAR = "BITEXTAUG_PASS_ENV"
MAX_TIMEOUT = (2**31 - 1) // 1000  # seconds: the wait is a poll() of C-int milliseconds


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
        if not 0 < self.timeout <= MAX_TIMEOUT:  # nan compares false too
            raise ValidationError(
                f"translator {self.name!r}: timeout must be in (0, {MAX_TIMEOUT}] s, got {self.timeout}"
            )


def _child_env() -> dict[str, str]:
    env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
    extra = os.environ.get(PASS_ENV_VAR, "")
    for name in extra.split(","):
        name = name.strip()
        if name and name in os.environ:
            env[name] = os.environ[name]
    return env


def translate_file(
    spec: TranslatorSpec,
    input_path: PathLike,
    output_path: Optional[PathLike] = None,
    seed: Optional[int] = None,
) -> list[str]:
    """Run the external command on a one-sentence-per-line file.

    The output must come back with exactly as many lines as the input.
    An optional {SEED} placeholder in the template is expanded when a seed
    is given (used for per-run decoding seeds). Returns the output's lines,
    read once as read_lines reads them; the file stays at output_path.
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
    # A stop signal waits until proc exists to be killed; the command starts
    # with the caller's signal mask. Its diagnostics may be in any encoding;
    # undecodable bytes must not fail a good decode or hide why a bad one failed.
    with held_signals() as mask, subprocess.Popen(
        command,
        shell=True,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        encoding="utf-8",
        errors="replace",
        start_new_session=True,
        preexec_fn=functools.partial(signal.pthread_sigmask, signal.SIG_SETMASK, mask),
    ) as proc:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a signal that waited is raised here
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
    n_in = sum(1 for _ in scan_lines(input_path))
    try:
        out = read_lines(output_path)
    except CorpusFormatError as exc:
        message = f"translator {spec.name!r} produced no output that can be read: {exc}"
        raise TranslatorError(message) from exc
    if n_in != len(out):
        raise TranslatorError(
            f"translator {spec.name!r} line-count mismatch: {n_in} input lines vs "
            f"{len(out)} output lines"
        )
    return out


def _translated_lines(
    spec: TranslatorSpec, lines: Sequence[str], workdir: Optional[PathLike], label: str
) -> list[str]:
    with tempfile.TemporaryDirectory(dir=workdir, prefix="bitextaug-") as td:
        in_path = Path(td) / f"{label}.in"
        write_lines(in_path, lines)
        out = translate_file(spec, in_path, Path(td) / f"{label}.out")
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
    return _pseudo_pairs(parallel, backward, workdir, Side.TARGET)


def self_train(
    parallel: Corpus, forward: TranslatorSpec, workdir: Optional[PathLike] = None
) -> Corpus:
    """Pseudo pairs whose targets are machine translations of the sources.

    Source sentences pass through untouched; pair order is preserved.
    """
    return _pseudo_pairs(parallel, forward, workdir, Side.SOURCE)


# per translated side: the operation, its translator's direction, the pairs' origin and file label
_PSEUDO = {
    Side.TARGET: ("back_translate", Direction.BACKWARD, Origin.PSEUDO_BT, "bt"),
    Side.SOURCE: ("self_train", Direction.FORWARD, Origin.PSEUDO_ST, "st"),
}


def _pseudo_pairs(
    parallel: Corpus, spec: TranslatorSpec, workdir: Optional[PathLike], side: Side
) -> Corpus:
    """Translate one side of an original corpus into the other; the side itself is kept."""
    op, direction, origin, label = _PSEUDO[side]
    if len(parallel) == 0:
        raise ValidationError(f"{op}: empty corpus")
    if (parallel.origins.codes() != tuple(Origin).index(Origin.ORIGINAL)).any():
        found = sorted(o.value for o in set(parallel.origins) - {Origin.ORIGINAL})
        raise ValidationError(f"{op} expects an original-origin corpus, found {found}")
    if spec.direction is not direction:
        raise ValidationError(f"{op} needs a {direction.value}-direction translator")
    kept = parallel.column(side)  # the column itself, with the facts known of it
    translated = _translated_lines(spec, kept, workdir, label)
    columns = (translated, kept) if side is Side.TARGET else (kept, translated)
    meta = {"origin": origin.value, "translator": spec.name, "base": parallel.name}
    return Corpus(*columns, (origin,) * len(parallel), f"{parallel.name}+{label}",
                  parallel.source_lang, parallel.target_lang, meta)


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
