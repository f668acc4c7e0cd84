"""Run one bitextaug CLI operation in this (fresh) process and time it.

Usage: python3 op.py RESULT_JSON TRACE -- ARGV...

Imports ``bitextaug.cli`` first, outside the timed window, then times
``bitextaug.cli.main(ARGV)``: wall seconds, CPU seconds of this process
and its children (the translator subprocesses), and this process's peak
resident memory. With TRACE=1 the calls into each module are wrapped
first (see tracer.py) and the per-layer figures are added. The result is
written as JSON to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv: list[str]) -> int:
    result_path, trace, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit(__doc__)
    import bitextaug.cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cpu0 = _cpu()
    start = time.perf_counter()
    code = bitextaug.cli.main(cli_argv)
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0

    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
