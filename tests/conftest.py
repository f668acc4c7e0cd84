import contextlib
import os
import random
import shlex
import sys

import pytest

from bitextaug import metrics
from bitextaug.corpus import Corpus, Origin

PYTHON = shlex.quote(sys.executable)


def mock_cmd(mode: str, extra: str = "") -> str:
    return f"{PYTHON} -m bitextaug.mocks {mode} {{IN}} {{OUT}}{extra}"


def make_corpus(
    n: int,
    seed: int = 0,
    min_len: int = 3,
    max_len: int = 20,
    origin: Origin = Origin.ORIGINAL,
    name: str = "fixture",
    unique_lines: bool = True,
) -> Corpus:
    """Random corpus with distinct per-pair vocabularies when unique_lines."""
    rng = random.Random(seed)
    sources, targets = [], []
    for i in range(n):
        k = rng.randint(min_len, max_len)
        if unique_lines:
            src = " ".join(f"s{i}t{j}" for j in range(k))
            tgt = " ".join(f"u{i}t{j}" for j in range(k))
        else:
            src = " ".join(f"w{rng.randint(0, 30)}" for _ in range(k))
            tgt = " ".join(f"v{rng.randint(0, 30)}" for _ in range(k))
        sources.append(src)
        targets.append(tgt)
    return Corpus(sources, targets, [origin] * n, name=name)


def corpus_of(pairs, **kwargs) -> Corpus:
    """Corpus holding the given SentencePair rows."""
    pairs = list(pairs)
    return Corpus(
        [p.source for p in pairs], [p.target for p in pairs], [p.origin for p in pairs], **kwargs
    )


def write_pair_files(tmp_path, corpus: Corpus, prefix: str = "corpus"):
    src = tmp_path / f"{prefix}.src"
    tgt = tmp_path / f"{prefix}.tgt"
    src.write_text("".join(line + "\n" for line in corpus.sources), encoding="utf-8")
    tgt.write_text("".join(line + "\n" for line in corpus.targets), encoding="utf-8")
    return src, tgt


@pytest.fixture
def small_corpus():
    return make_corpus(40, seed=7, min_len=5, max_len=18)


@contextlib.contextmanager
def forced_shards(cpus: int, min_chars: int):
    """Let BLEU scoring see `cpus` usable CPUs and a shard floor of `min_chars` characters.

    Yields the list of shard workers' pids forked meanwhile.
    """
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        mp.setattr(metrics.os, "fork", fork)
        mp.setattr(metrics, "SHARD_MIN_CHARS", min_chars)
        yield forked
