"""Edit matching against a reference and precision/recall/F-beta metrics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, fsum

from .core import M2Corpus


class CorpusAlignmentError(ValueError):
    """Two corpora disagree on their source sentences."""

    def __init__(self, index: int, message: str):
        super().__init__(f"sentence {index}: {message}")
        self.index = index


def check_same_sources(*corpora: M2Corpus) -> None:
    """Require equal sentence counts and identical source tokens per index."""
    first = corpora[0]
    for other in corpora[1:]:
        if len(other) != len(first):
            raise CorpusAlignmentError(
                min(len(first), len(other)),
                f"sentence counts differ ({len(first)} vs {len(other)})",
            )
        for i, (x, y) in enumerate(zip(first, other)):
            if x.tokens != y.tokens:
                raise CorpusAlignmentError(i, "source tokens differ")


@dataclass
class TypeStats:
    """True/false positive and false negative counts for one error type."""

    tp: int = 0
    fp: int = 0
    fn: int = 0


def match_edits(hyp: M2Corpus, gold: M2Corpus, annotator: int = 0) -> dict[str, TypeStats]:
    """Per-error-type TP/FP/FN of a hypothesis corpus against a reference.

    A hypothesis edit is a true positive when a reference edit of the
    selected annotator has the same (start, end, replacement) key; type
    labels do not need to agree. Each reference edit matches at most one
    hypothesis edit. True positives count toward the reference edit's
    type, false positives toward the hypothesis edit's type, and
    unmatched reference edits are false negatives of their own type.

    `annotator` selects which reference annotator to score against;
    hypothesis corpora are taken as-is (system outputs conventionally
    use annotator 0 throughout).
    """
    check_same_sources(hyp, gold)
    stats: dict[str, TypeStats] = {}

    def bucket(etype: str) -> TypeStats:
        return stats.setdefault(etype, TypeStats())

    for hyp_sent, gold_sent in zip(hyp, gold):
        gold_by_key = {e.key: e for e in gold_sent.edits if e.annotator == annotator}
        matched = set()
        for e in hyp_sent.edits:
            ref = gold_by_key.get(e.key)
            if ref is not None and e.key not in matched:
                matched.add(e.key)
                bucket(ref.etype).tp += 1
            else:
                bucket(e.etype).fp += 1
        for key, ref in gold_by_key.items():
            if key not in matched:
                bucket(ref.etype).fn += 1
    return stats


def f_beta_from_counts(tp: float, fp: float, fn: float, beta: float = 0.5) -> float:
    """F_beta from raw counts: (1+b^2)*tp / ((1+b^2)*tp + fp + b^2*fn).

    Zero when there are no true positives (the all-zero case included).
    Counts may be fractional, which is occasionally convenient when
    working back from published precision/recall figures.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be >= 0")
    if tp == 0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * tp / ((1 + b2) * tp + fp + b2 * fn)


@dataclass(frozen=True)
class Score:
    """Precision, recall and F_beta, with 0/0 ratios defined as 0."""

    precision: float
    recall: float
    f_beta: float
    beta: float

    @classmethod
    def from_counts(cls, tp: float, fp: float, fn: float, beta: float = 0.5) -> "Score":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        return cls(precision, recall, f_beta_from_counts(tp, fp, fn, beta), beta)


def score_corpus(
    hyp: M2Corpus,
    gold: M2Corpus,
    beta: float = 0.5,
    annotator: int = 0,
) -> tuple[Score, dict[str, Score]]:
    """Overall and per-type scores of a hypothesis corpus."""
    stats = match_edits(hyp, gold, annotator)
    tp = sum(s.tp for s in stats.values())
    fp = sum(s.fp for s in stats.values())
    fn = sum(s.fn for s in stats.values())
    overall = Score.from_counts(tp, fp, fn, beta)
    per_type = {
        etype: Score.from_counts(s.tp, s.fp, s.fn, beta)
        for etype, s in sorted(stats.items())
    }
    return overall, per_type


def precision_stability(n_samples: int, prec_dev: float, delta: float) -> float:
    """Probability that precision measured on fresh data deviates from the
    development value by at least `delta`.

    Models the number of correct edits among `n_samples` as
    Binomial(n_samples, prec_dev) and returns
    P(|X/n - prec_dev| >= delta) as a tail sum. The deviation test is
    evaluated in rational arithmetic so boundary terms are included
    consistently regardless of float rounding. The probabilities are
    summed as weights relative to the mode, built outward with the ratio
    P(k+1)/P(k) = (n-k)/(k+1) * p/(1-p), and divided by their total, so
    no term overflows for any `n_samples`; weights too small for a float
    are dropped.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 <= prec_dev <= 1.0:
        raise ValueError("prec_dev must be in [0, 1]")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    p = Fraction(prec_dev)
    d = Fraction(delta)
    n = n_samples
    in_tail = [abs(Fraction(k, n) - p) >= d for k in range(n + 1)]
    if prec_dev in (0.0, 1.0):
        # all mass sits on X = n * prec_dev
        return float(in_tail[round(n * prec_dev)])
    odds = prec_dev / (1.0 - prec_dev)
    mode = min(n, floor((n + 1) * prec_dev))
    weights = [0.0] * (n + 1)
    weights[mode] = 1.0
    for k in range(mode, n):
        weights[k + 1] = weights[k] * (n - k) / (k + 1) * odds
        if weights[k + 1] == 0.0:
            break
    for k in range(mode, 0, -1):
        weights[k - 1] = weights[k] * k / (n - k + 1) / odds
        if weights[k - 1] == 0.0:
            break
    tail = fsum(w for w, t in zip(weights, in_tail) if t)
    return min(tail / fsum(weights), 1.0)
