"""Token-level alignment, edit extraction, and coarse error-type labels.

This stands in for a full linguistic annotator when a black-box system
returns only corrected text: aligning the system output against the
source sentence yields the edit set, and a small deterministic rule
chain assigns each edit a type label compatible with the usual
"operation:category" scheme (e.g. "R:SPELL", "M:DET").
"""

from __future__ import annotations

import string
import unicodedata
from dataclasses import dataclass
from typing import Collection, Sequence

from .core import Edit
from .distance import damerau_levenshtein

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class AlignmentOp:
    """One alignment step covering [src_start, src_end) and [tgt_start, tgt_end).

    Match and substitute consume one token on each side; insert consumes
    only a target token, delete only a source token. The ops of an
    alignment partition both token sequences in order.
    """

    kind: str
    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int


def align_tokens(source: Sequence[str], target: Sequence[str]) -> list[AlignmentOp]:
    """Minimum-cost alignment of two token sequences.

    Costs: match 0, substitution 1 (0.5 when the tokens are equal after
    lowercasing, which biases the alignment toward pairing case
    variants), insertion 1, deletion 1. Ties break toward match, then
    substitution, then deletion, then insertion, so the result is
    deterministic.
    """
    n, m = len(source), len(target)
    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    back = [[""] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = float(i)
        back[i][0] = DELETE
    for j in range(1, m + 1):
        cost[0][j] = float(j)
        back[0][j] = INSERT
    for i in range(1, n + 1):
        src_tok = source[i - 1]
        row = cost[i]
        prev_row = cost[i - 1]
        back_row = back[i]
        for j in range(1, m + 1):
            tgt_tok = target[j - 1]
            if src_tok == tgt_tok:
                best_kind, best = MATCH, prev_row[j - 1]
            elif src_tok.lower() == tgt_tok.lower():
                best_kind, best = SUBSTITUTE, prev_row[j - 1] + 0.5
            else:
                best_kind, best = SUBSTITUTE, prev_row[j - 1] + 1.0
            if prev_row[j] + 1.0 < best:
                best_kind, best = DELETE, prev_row[j] + 1.0
            if row[j - 1] + 1.0 < best:
                best_kind, best = INSERT, row[j - 1] + 1.0
            row[j] = best
            back_row[j] = best_kind
    ops: list[AlignmentOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        kind = back[i][j]
        if kind in (MATCH, SUBSTITUTE):
            ops.append(AlignmentOp(kind, i - 1, i, j - 1, j))
            i -= 1
            j -= 1
        elif kind == DELETE:
            ops.append(AlignmentOp(kind, i - 1, i, j, j))
            i -= 1
        else:
            ops.append(AlignmentOp(INSERT, i, i, j - 1, j))
            j -= 1
    ops.reverse()
    return ops


_DETERMINERS = frozenset({"a", "an", "the"})

_PREPOSITIONS = frozenset({
    "about", "above", "across", "after", "against", "along", "among",
    "around", "at", "before", "behind", "below", "beside", "between",
    "by", "during", "for", "from", "in", "into", "of", "off", "on",
    "to", "with",
})


def _all_punctuation(tokens: Sequence[str]) -> bool:
    chars = "".join(tokens)
    return all(
        ch in string.punctuation or unicodedata.category(ch).startswith("P")
        for ch in chars
    )


def _in_dictionary(word: str, dictionary: Collection[str]) -> bool:
    return word in dictionary or word.lower() in dictionary


def classify_edit(
    source_span: Sequence[str],
    replacement_span: Sequence[str],
    dictionary: Collection[str] = frozenset(),
) -> str:
    """Assign a coarse error-type label to a (span, replacement) pair.

    The prefix encodes the operation: M: insertion (missing text),
    U: deletion (unnecessary text), R: replacement. The category is the
    first matching rule:

    - PUNCT: every character on both sides is punctuation;
    - ORTH: the sides are equal after lowercasing and removing spaces;
    - DET: every changed token is one of a/an/the;
    - PREP: every changed token is in a fixed 25-preposition list;
    - SPELL: single-token replacement whose source token is absent from
      `dictionary` and within Damerau-Levenshtein distance 2 of the
      replacement;
    - OTHER: anything else.

    The result is a pure function of its inputs, so re-running the
    classifier on the same correction always yields the same label.
    """
    src = tuple(source_span)
    repl = tuple(replacement_span)
    if not src and not repl:
        raise ValueError("cannot classify an empty edit")
    if not src:
        prefix = "M"
        changed = repl
    elif not repl:
        prefix = "U"
        changed = src
    else:
        prefix = "R"
        changed = src + repl
    if _all_punctuation(src) and _all_punctuation(repl):
        category = "PUNCT"
    elif "".join(src).lower() == "".join(repl).lower():
        category = "ORTH"
    elif all(tok.lower() in _DETERMINERS for tok in changed):
        category = "DET"
    elif all(tok.lower() in _PREPOSITIONS for tok in changed):
        category = "PREP"
    elif (
        prefix == "R"
        and len(src) == 1
        and len(repl) == 1
        and not _in_dictionary(src[0], dictionary)
        and damerau_levenshtein(src[0], repl[0]) <= 2
    ):
        category = "SPELL"
    else:
        category = "OTHER"
    return f"{prefix}:{category}"


def extract_edits(
    source: Sequence[str],
    target: Sequence[str],
    dictionary: Collection[str] = frozenset(),
    annotator: int = 0,
) -> tuple[Edit, ...]:
    """Extract the edit set that rewrites `source` into `target`.

    Contiguous runs of non-match alignment ops merge into single edits
    (span = covered source range, replacement = covered target tokens),
    which keeps multi-token corrections as one edit. Applying the result
    to `source` with apply_edits reproduces `target` exactly.
    """
    ops = align_tokens(source, target)
    edits: list[Edit] = []
    run: list[AlignmentOp] = []

    def flush_run() -> None:
        if not run:
            return
        s0, s1 = run[0].src_start, run[-1].src_end
        t0, t1 = run[0].tgt_start, run[-1].tgt_end
        src_span = tuple(source[s0:s1])
        tgt_span = tuple(target[t0:t1])
        etype = classify_edit(src_span, tgt_span, dictionary)
        edits.append(Edit(s0, s1, etype, " ".join(tgt_span), annotator))
        run.clear()

    for op in ops:
        if op.kind == MATCH:
            flush_run()
        else:
            run.append(op)
    flush_run()
    return tuple(edits)
