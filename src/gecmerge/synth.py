"""Synthetic error generation by applying measured corrections backwards.

An annotated training corpus yields two distributions: how many edits a
sentence carries, and which specific corrections occur. Generation
draws an edit count, draws that many corrections, finds the clean pool
sentences where every drawn correction can be applied backwards (the
tokens it needs are present, with pairwise disjoint target spans),
picks one uniformly, and injects the errors. The emitted gold edit set
is the forward correction set with spans recomputed on the corrupted
sentence, so applying it restores the clean sentence exactly.

The pool index builds a token's posting set only when a draw first asks
for it. When every drawn correction needs a one-token find and at most
one of them deletes its find, applicability is decided by counting
tokens: one-token spans are disjoint exactly when their positions
differ and block no insertion point. Any other draw falls back to a
search over the finds' occurrence spans.

All randomness flows through one seeded SplitMix64 stream, making every
generated corpus byte-reproducible from (pool, distribution, seed).
"""

from __future__ import annotations

import json
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from typing import Mapping, Sequence

from .core import AnnotatedSentence, Edit, M2Corpus, apply_edits, spans_overlap
from .fileio import atomic_write, json_field, json_object
from .rng import SplitMix64

_ASSIGNMENT_CAP = 10_000


class GenerationExhaustedError(RuntimeError):
    """No pool sentence admitted the drawn corrections within the attempt budget."""

    def __init__(self, attempts: int, n_edits: int, corrections: tuple["CorrectionId", ...]):
        super().__init__(
            f"no applicable pool sentence after {attempts} draws "
            f"(last draw: {n_edits} corrections {[c.short() for c in corrections]})"
        )
        self.attempts = attempts
        self.n_edits = n_edits
        self.corrections = corrections
        self.progress = 0


@dataclass(frozen=True)
class CorrectionId:
    """Identity of one specific correction.

    `source_text` is the corrected span's original text (empty for a
    correction that inserts text); `replacement` is the text it became
    (empty for a correction that deletes text). Both are single-spaced
    token text, as in an `Edit`, and `etype` is non-empty.
    """

    source_text: str
    replacement: str
    etype: str

    def __post_init__(self):
        for name, text in (("source", self.source_text), ("replacement", self.replacement)):
            if text != " ".join(text.split()):
                raise ValueError(
                    f"correction {name} {text!r} is not canonical "
                    "(single spaces, no leading or trailing whitespace)"
                )
        if not self.etype:
            raise ValueError("correction etype must be non-empty")
        if not self.source_text and not self.replacement:
            raise ValueError("correction must change something")

    @property
    def kind(self) -> str:
        if not self.source_text:
            return "insertion"
        if not self.replacement:
            return "deletion"
        return "replacement"

    @property
    def find_tokens(self) -> tuple[str, ...]:
        """Tokens a clean sentence must contain for the reverse application."""
        return tuple(self.replacement.split())

    def short(self) -> str:
        return f"{self.etype}:{self.source_text!r}->{self.replacement!r}"


@dataclass(frozen=True)
class ErrorDistribution:
    """Histogram of edits per sentence plus frequencies of specific corrections."""

    per_sentence_hist: Mapping[int, float]
    correction_freq: Mapping[CorrectionId, float]
    _hist_items: tuple = field(init=False, repr=False, compare=False)
    _correction_items: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hist = dict(self.per_sentence_hist)
        freq = dict(self.correction_freq)
        object.__setattr__(self, "per_sentence_hist", hist)
        object.__setattr__(self, "correction_freq", freq)
        for name, dist in (("per_sentence_hist", hist), ("correction_freq", freq)):
            if any(not math.isfinite(p) or p < 0 for p in dist.values()):
                raise ValueError(f"{name} has a negative or non-finite probability")
        if abs(sum(hist.values()) - 1.0) > 1e-9:
            raise ValueError("per_sentence_hist does not sum to 1")
        if freq:
            if abs(sum(freq.values()) - 1.0) > 1e-9:
                raise ValueError("correction_freq does not sum to 1")
        elif any(k > 0 and p > 0 for k, p in hist.items()):
            raise ValueError("nonzero edit counts require a correction distribution")
        object.__setattr__(self, "_hist_items", tuple(sorted(hist.items())))
        object.__setattr__(
            self,
            "_correction_items",
            tuple(sorted(freq.items(), key=lambda kv: (kv[0].source_text, kv[0].replacement, kv[0].etype))),
        )


def measure_distribution(train: M2Corpus, annotator: int = 0) -> ErrorDistribution:
    """Measure the correction distribution of an annotated corpus."""
    if len(train) == 0:
        raise ValueError("cannot measure an empty corpus")
    hist: Counter[int] = Counter()
    freq: Counter[CorrectionId] = Counter()
    for sent in train:
        edits = sent.edits_for(annotator)
        hist[len(edits)] += 1
        for e in edits:
            freq[
                CorrectionId(" ".join(sent.tokens[e.start:e.end]), e.replacement, e.etype)
            ] += 1
    n = len(train)
    total = sum(freq.values())
    return ErrorDistribution(
        {k: c / n for k, c in hist.items()},
        {cid: c / total for cid, c in freq.items()},
    )


def _draw(items: Sequence[tuple], rng: SplitMix64):
    u = rng.random()
    acc = 0.0
    for value, prob in items:
        acc += prob
        if u < acc:
            return value
    return items[-1][0]


class PoolIndex:
    """Inverted token index over a clean-sentence pool.

    Narrows the applicability scan to sentences containing every token a
    drawn correction needs, instead of re-checking the whole pool per
    draw. A token's posting set is built on its first lookup and kept,
    so a draw pays only for the tokens it asks for.
    """

    def __init__(self, pool: Sequence[Sequence[str]]):
        if not pool:
            raise ValueError("pool must be non-empty")
        self.sentences: tuple[tuple[str, ...], ...] = tuple(map(tuple, pool))
        self._postings: dict[str, frozenset[int]] = {}

    def _ids(self, tok: str) -> frozenset[int]:
        ids = self._postings.get(tok)
        if ids is None:
            ids = frozenset(
                compress(count(), map(operator.contains, self.sentences, repeat(tok)))
            )
            self._postings[tok] = ids
        return ids

    def candidates(self, corrections: Sequence[CorrectionId]) -> list[int]:
        ids: frozenset[int] | None = None
        for c in corrections:
            for tok in c.find_tokens:
                have = self._ids(tok)
                ids = have if ids is None else ids & have
                if not ids:
                    return []
        if ids is None:
            return list(range(len(self.sentences)))
        return sorted(ids)


def _occurrences(tokens: Sequence[str], seq: tuple[str, ...]) -> list[tuple[int, int]]:
    width = len(seq)
    return [
        (i, i + width)
        for i in range(len(tokens) - width + 1)
        if tuple(tokens[i:i + width]) == seq
    ]


def _span_assignments(
    option_lists: Sequence[list[tuple[int, int]]],
    removes: Sequence[bool],
    n_inserts: int,
    n_tokens: int,
    cap: int,
) -> list[tuple[tuple[int, int], ...]]:
    """Choices of pairwise-disjoint occurrence spans, one per correction.

    `removes[i]` marks a correction whose reverse removes its span; its
    gold edit is an insertion point, so two such spans may not touch
    either, or their gold edits would coincide. Assignments that leave
    too few free positions for the insert-style corrections are
    excluded. Enumeration stops at `cap` results, which only matters
    for pathological draws.
    """
    results: list[tuple[tuple[int, int], ...]] = []
    chosen: list[tuple[int, int]] = []

    def capacity() -> int:
        blocked = sum(e - s - 1 for s, e in chosen if e > s)
        return n_tokens + 1 - blocked

    def clashes(i: int, s: int, e: int) -> bool:
        for j, (cs, ce) in enumerate(chosen):
            if spans_overlap(s, e, cs, ce):
                return True
            if removes[i] and removes[j] and (e == cs or ce == s):
                return True
        return False

    def rec(i: int) -> None:
        if len(results) >= cap:
            return
        if i == len(option_lists):
            if capacity() >= n_inserts:
                results.append(tuple(chosen))
            return
        for span in option_lists[i]:
            if not clashes(i, *span):
                chosen.append(span)
                rec(i + 1)
                chosen.pop()
                if len(results) >= cap:
                    return

    rec(0)
    return results


def _finders(
    corrections: Sequence[CorrectionId],
) -> tuple[list[CorrectionId], list[bool], int]:
    """(corrections that need a find, which of them remove it, insert count)."""
    finders = [c for c in corrections if c.kind != "deletion"]
    removes = [c.kind == "insertion" for c in finders]
    return finders, removes, len(corrections) - len(finders)


def _applicable(tokens: Sequence[str], corrections: Sequence[CorrectionId]) -> bool:
    finders, removes, n_inserts = _finders(corrections)
    option_lists = [_occurrences(tokens, c.find_tokens) for c in finders]
    if any(not options for options in option_lists):
        return False
    return bool(_span_assignments(option_lists, removes, n_inserts, len(tokens), cap=1))


def _applicable_ids(index: PoolIndex, corrections: Sequence[CorrectionId]) -> list[int]:
    """Ascending ids of the pool sentences that admit every correction.

    When each find is one token and at most one correction removes its
    find, spans are disjoint exactly when their positions differ, the
    touching rule never applies and no span blocks an insertion point,
    so a candidate is applicable iff it holds each needed token as often
    as it is needed and has room for the inserts. Other draws run the
    span search on each candidate.
    """
    candidates = index.candidates(corrections)
    finders, removes, n_inserts = _finders(corrections)
    if sum(removes) > 1 or any(len(c.find_tokens) != 1 for c in finders):
        return [i for i in candidates if _applicable(index.sentences[i], corrections)]
    need = Counter(c.find_tokens[0] for c in finders)
    repeated = [(tok, m) for tok, m in need.items() if m > 1]
    sentences = index.sentences
    return [
        i
        for i in candidates
        if len(sentences[i]) + 1 >= n_inserts
        and all(sentences[i].count(tok) >= m for tok, m in repeated)
    ]


def _corrupt(
    clean: tuple[str, ...],
    corrections: Sequence[CorrectionId],
    rng: SplitMix64,
) -> tuple[list[str], tuple[Edit, ...]]:
    """Inject the corrections backwards; return (corrupted, gold edits)."""
    finders, removes, _ = _finders(corrections)
    inserters = [c for c in corrections if c.kind == "deletion"]
    option_lists = [_occurrences(clean, c.find_tokens) for c in finders]
    assignments = _span_assignments(
        option_lists, removes, len(inserters), len(clean), cap=_ASSIGNMENT_CAP
    )
    spans = rng.choice(assignments) if finders or inserters else ()
    reverse: list[tuple[Edit, CorrectionId]] = [
        (Edit(s, e, c.etype, c.source_text), c) for (s, e), c in zip(spans, finders)
    ]
    blocked = {p for s, e in spans if e > s for p in range(s + 1, e)}
    taken: set[int] = set()
    for c in inserters:
        positions = [
            p for p in range(len(clean) + 1) if p not in blocked and p not in taken
        ]
        p = rng.choice(positions)
        taken.add(p)
        reverse.append((Edit(p, p, c.etype, c.source_text), c))
    corrupted = apply_edits(clean, [r for r, _ in reverse])
    gold: list[Edit] = []
    offset = 0
    for redit, c in sorted(reverse, key=lambda pair: (pair[0].start, pair[0].end)):
        injected = len(redit.replacement_tokens)
        start = redit.start + offset
        gold.append(
            Edit(start, start + injected, c.etype, " ".join(clean[redit.start:redit.end]))
        )
        offset += injected - (redit.end - redit.start)
    return corrupted, tuple(gold)


def generate_pair(
    pool: Sequence[Sequence[str]],
    dist: ErrorDistribution,
    seed: int = 0,
    max_attempts: int = 100,
    *,
    rng: SplitMix64 | None = None,
    index: PoolIndex | None = None,
) -> tuple[list[str], list[str], tuple[Edit, ...]]:
    """One (corrupted tokens, clean tokens, gold edit set) draw.

    Raises GenerationExhaustedError when `max_attempts` consecutive
    draws find no applicable pool sentence.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if rng is None:
        rng = SplitMix64(seed)
    if index is None:
        index = PoolIndex(pool)
    last_draw: tuple[int, tuple[CorrectionId, ...]] = (0, ())
    for _ in range(max_attempts):
        k = _draw(dist._hist_items, rng)
        corrections = tuple(_draw(dist._correction_items, rng) for _ in range(k))
        last_draw = (k, corrections)
        if k == 0:
            clean = list(index.sentences[rng.randrange(len(index.sentences))])
            return list(clean), clean, ()
        applicable = _applicable_ids(index, corrections)
        if not applicable:
            continue
        clean = index.sentences[rng.choice(applicable)]
        corrupted, gold = _corrupt(clean, corrections, rng)
        return corrupted, list(clean), gold
    raise GenerationExhaustedError(max_attempts, last_draw[0], last_draw[1])


def generate_corpus(
    pool: Sequence[Sequence[str]],
    dist: ErrorDistribution,
    n_sentences: int,
    seed: int = 0,
    max_attempts: int = 100,
) -> tuple[list[str], list[str], M2Corpus]:
    """Generate a parallel corpus of n_sentences seeded draws.

    Returns (corrupted lines, clean lines, gold corpus); the gold corpus
    annotates the corrupted side, so scoring it against itself or
    applying its edits recovers the clean side.
    """
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    index = PoolIndex(pool)
    rng = SplitMix64(seed)
    corrupted_lines: list[str] = []
    clean_lines: list[str] = []
    sentences: list[AnnotatedSentence] = []
    for done in range(n_sentences):
        try:
            corrupted, clean, gold = generate_pair(
                pool, dist, max_attempts=max_attempts, rng=rng, index=index
            )
        except GenerationExhaustedError as exc:
            exc.progress = done
            raise
        corrupted_lines.append(" ".join(corrupted))
        clean_lines.append(" ".join(clean))
        sentences.append(AnnotatedSentence(tuple(corrupted), gold))
    return corrupted_lines, clean_lines, M2Corpus(tuple(sentences))


def distribution_to_json_dict(dist: ErrorDistribution) -> dict:
    return {
        "per_sentence_hist": {str(k): p for k, p in sorted(dist.per_sentence_hist.items())},
        "corrections": [
            {
                "source": cid.source_text,
                "replacement": cid.replacement,
                "etype": cid.etype,
                "prob": p,
            }
            for cid, p in dist._correction_items
        ],
    }


def distribution_from_json_dict(data: dict) -> ErrorDistribution:
    """Distribution from its JSON form; any missing key or wrong type is a ValueError."""
    data = json_object(data, "distribution")
    hist_json = json_field(data, "per_sentence_hist", dict, "distribution")
    hist = {
        int(k): float(json_field(hist_json, k, (int, float), "per_sentence_hist"))
        for k in hist_json
    }
    freq = {}
    for item in json_field(data, "corrections", list, "distribution"):
        item = json_object(item, "correction")
        cid = CorrectionId(
            json_field(item, "source", str, "correction"),
            json_field(item, "replacement", str, "correction"),
            json_field(item, "etype", str, "correction"),
        )
        freq[cid] = float(json_field(item, "prob", (int, float), "correction"))
    return ErrorDistribution(hist, freq)


def save_distribution(path: str | os.PathLike, dist: ErrorDistribution) -> None:
    with atomic_write(path) as fh:
        json.dump(distribution_to_json_dict(dist), fh, indent=2)
        fh.write("\n")


def load_distribution(path: str | os.PathLike) -> ErrorDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_json_dict(json.load(fh))
