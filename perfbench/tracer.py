"""Spans around the public functions at the module boundaries of bitextaug.

The program is not changed: ``Tracer.install`` replaces each listed
function, in every ``bitextaug`` module namespace that holds it, with a
wrapper that records a span (name, start, end, parent). The modules import
each other's functions by name, so patching the defining module alone
would miss the calls this benchmark wants to see.

Each span also records the children's CPU time (``RUSAGE_CHILDREN``) at
its start and end, and interpreter gen-2 collections are timed through
``gc.callbacks``. The tracer's own work after a call (counting its items,
which may read a file) is kept out of every span still open around it. ``layer_metrics`` turns the spans into the per-layer
figures the benchmark reports.
"""

from __future__ import annotations

import functools
import gc
import resource
import sys
import time
from pathlib import Path

# Functions wrapped, by the bitextaug module that defines them.
TRACED = {
    "corpus": ("load_parallel", "sample", "save_parallel"),
    "augment": ("concat_augment",),
    "translate": ("back_translate", "translate_file"),
    "mix": ("build_mix", "write_mix", "mix_manifest"),
    "metrics": ("corpus_bleu", "bucketed_bleu", "average_runs"),
    "report": ("render_bucket_table", "render_diff_chart", "render_diff_csv", "render_judgment_table"),
    "pipeline": ("cmd_run", "cmd_validate"),
    "cli": ("main",),
}

_SCORERS = ("metrics.bucketed_bleu", "metrics.corpus_bleu")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _items(name: str, args: tuple, kwargs: dict, result) -> float:
    """Work count of one call, taken from its arguments or its result."""
    if name in _SCORERS:
        return len(args[0] if args else kwargs["hypotheses"])
    if name == "augment.concat_augment":
        return len(result)
    if name == "translate.translate_file":
        input_path = args[1] if len(args) > 1 else kwargs["input_path"]
        return Path(input_path).read_bytes().count(b"\n")
    if name == "mix.write_mix":
        from bitextaug.corpus import read_sidecar

        manifest = Path(result)
        entries = read_sidecar(manifest)
        files = [manifest, *(manifest.with_name(entries[k]) for k in ("file.source", "file.target"))]
        return sum(p.stat().st_size for p in files)
    return 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "cpu0", "cpu1", "items", "draws", "excluded")

    def __init__(self, name: str, parent: int, excluded: float):
        self.name = name
        self.parent = parent
        self.items = 0.0
        self.draws = 0
        self.excluded = excluded  # tracer time so far; at the end, tracer time inside the span
        self.cpu0 = _children_cpu()
        self.start = time.perf_counter()
        self.end = self.start
        self.cpu1 = self.cpu0

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.gc_gen2_s = 0.0
        self.gc_gen2_count = 0
        self._gc_start = 0.0
        self._excluded = 0.0  # seconds spent counting items, kept out of the spans around them

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self._excluded)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu1 = _children_cpu()
                span.excluded = self._excluded - span.excluded
                stack.pop()
            span.items = _items(name, args, kwargs, result)
            if name == "augment.concat_augment":
                span.draws = int(result.meta["draws"])
            self._excluded += time.perf_counter() - span.end
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and start timing gen-2 collections."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "bitextaug"]
        for layer, names in TRACED.items():
            defining = sys.modules[f"bitextaug.{layer}"]
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_gen2_s += time.perf_counter() - self._gc_start
            self.gc_gen2_count += 1

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, self times, counts and rates; 0 where a layer did not run."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        items: dict[str, float] = {}
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.seconds
            self_s[span.name] = self_s.get(span.name, 0.0) + span.seconds
            calls[span.name] = calls.get(span.name, 0) + 1
            items[span.name] = items.get(span.name, 0.0) + span.items
            if span.parent >= 0:
                parent = self.spans[span.parent].name
                self_s[parent] -= span.seconds

        # scoring entered from outside the metrics layer: the input sentences
        outer = [
            s for s in self.spans
            if s.name in _SCORERS and (s.parent < 0 or self.spans[s.parent].name not in _SCORERS)
        ]
        scored_in = sum(s.items for s in outer)
        scored_s = sum(s.seconds for s in outer)
        concat_s = total.get("augment.concat_augment", 0.0)
        draws = sum(s.draws for s in self.spans)
        translate = [s for s in self.spans if s.name == "translate.translate_file"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {
            "metrics.bucketed_bleu.s": total.get("metrics.bucketed_bleu", 0.0),
            "metrics.corpus_bleu.s": total.get("metrics.corpus_bleu", 0.0),
            "metrics.corpus_bleu.calls": calls.get("metrics.corpus_bleu", 0),
            "metrics.sent_per_s": ratio(scored_in, scored_s),
            "metrics.rescored_ratio": ratio(items.get("metrics.corpus_bleu", 0.0), scored_in),
            "corpus.load_parallel.s": total.get("corpus.load_parallel", 0.0),
            "corpus.sample.s": total.get("corpus.sample", 0.0),
            "corpus.save_parallel.s": total.get("corpus.save_parallel", 0.0),
            "augment.concat_augment.s": concat_s,
            "augment.pairs_per_s": ratio(items.get("augment.concat_augment", 0.0), concat_s),
            "augment.draws": draws,
            "augment.accept_ratio": ratio(items.get("augment.concat_augment", 0.0), draws),
            "mix.build_mix.self_s": self_s.get("mix.build_mix", 0.0),
            "mix.mix_manifest.s": total.get("mix.mix_manifest", 0.0),
            "mix.write_mix.self_s": self_s.get("mix.write_mix", 0.0),
            "mix.bytes_written": items.get("mix.write_mix", 0.0),
            "translate.back_translate.s": total.get("translate.back_translate", 0.0),
            "translate.translate_file.s": total.get("translate.translate_file", 0.0),
            "translate.calls": calls.get("translate.translate_file", 0),
            "translate.lines": items.get("translate.translate_file", 0.0),
            "translate.child_cpu_s": sum(s.cpu1 - s.cpu0 for s in translate),
            "pipeline.cmd_validate.s": total.get("pipeline.cmd_validate", 0.0),
            "pipeline.cmd_run.self_s": self_s.get("pipeline.cmd_run", 0.0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "report.render.s": sum(v for k, v in total.items() if k.startswith("report.render_")),
            "runtime.gc_gen2_s": self.gc_gen2_s,
            "runtime.gc_gen2_count": self.gc_gen2_count,
        }
        return out
