"""Brute-force references, written independently of the package.

The corpus BLEU oracle counts n-grams by explicit index loops into plain
dicts, keeps precisions as exact fractions until the final combination,
and never shares code with bitextaug.metrics. Used to cross-check
corpus_bleu on small fixtures.

Conventions (must mirror the scorer's documented semantics): orders with
zero hypothesis n-grams in the whole corpus are dropped from the
geometric mean; any remaining zero precision gives score 0; optional
add-one smoothing applies to orders >= 2 only.
"""

import math
from fractions import Fraction


def ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def count_items(items):
    counts = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def oracle_bleu(hyp_token_lists, ref_token_lists, n_order=4, smooth=False):
    assert len(hyp_token_lists) == len(ref_token_lists) and hyp_token_lists
    matched = [0] * n_order
    total = [0] * n_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyp_token_lists, ref_token_lists):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, n_order + 1):
            hyp_ngrams = ngram_list(hyp, n)
            ref_counts = count_items(ngram_list(ref, n))
            hyp_counts = count_items(hyp_ngrams)
            for gram, k in hyp_counts.items():
                available = ref_counts.get(gram, 0)
                matched[n - 1] += k if k < available else available
            total[n - 1] += len(hyp_ngrams)
    precisions = []
    for n in range(n_order):
        m, t = matched[n], total[n]
        if smooth and n >= 1 and t > 0:
            m, t = m + 1, t + 1
        if t == 0:
            continue
        precisions.append(Fraction(m, t))
    if not precisions or any(p == 0 for p in precisions):
        return 0.0
    log_mean = sum(math.log(float(p)) for p in precisions) / len(precisions)
    if hyp_len >= ref_len:
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_mean)


def validate_corpus_by_pairs(corpus, sep_token=None):
    """validate_corpus's messages from a walk over every pair, each checked line split on its own."""
    problems = [
        f"pair 0: {side} starts with U+FEFF, which reads back as a byte-order mark"
        for side, lines in (("source", corpus.sources), ("target", corpus.targets))
        if len(lines) and lines[0].startswith("\ufeff")
    ]
    for i, (source, target, origin) in enumerate(corpus):
        concat = origin.value == "concat"
        for side, line in (("source", source), ("target", target)):
            if "\n" in line or "\r" in line:
                problems.append(f"pair {i}: {side} contains a newline or carriage return")
            if not line or line.isspace():
                problems.append(f"pair {i}: empty {side}")
            elif sep_token is not None:
                n_sep = line.split().count(sep_token)
                if concat and n_sep != 1:
                    problems.append(f"pair {i}: concatenated {side} has {n_sep} separator tokens, expected 1")
                if not concat and n_sep != 0:
                    problems.append(f"pair {i}: {side} contains reserved separator token {sep_token!r}")
    return problems
