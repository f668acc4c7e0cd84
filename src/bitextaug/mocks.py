"""Deterministic mock translators runnable as subprocesses.

Usage: python -m bitextaug.mocks MODE IN OUT [--max-tokens K] [--seed S]

MODE is identity, reverse, or truncate. --seed is accepted and ignored so
command templates carrying a decoding-seed placeholder work unchanged.
"""

from __future__ import annotations

# Only the standard library: a translator child must start without numpy.
import argparse
import sys


def transform(mode: str, line: str, max_tokens: int) -> str:
    if mode == "identity":
        return line
    tokens = line.split()
    if mode == "reverse":
        return " ".join(reversed(tokens))
    if mode == "truncate":
        return " ".join(tokens[: max(1, max_tokens)])
    raise ValueError(f"unknown mode {mode!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bitextaug.mocks", description=__doc__)
    parser.add_argument("mode", choices=["identity", "reverse", "truncate"])
    parser.add_argument("input")
    parser.add_argument("output")
    parser.add_argument("--max-tokens", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    args = parser.parse_args(argv)

    with open(args.input, encoding="utf-8") as fin, open(
        args.output, "w", encoding="utf-8", newline="\n"
    ) as fout:
        for line in fin:
            line = line.rstrip("\n")
            fout.write(transform(args.mode, line, args.max_tokens) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
