"""Learning and applying F-beta-optimal edit selection across two systems.

Training partitions the paired outputs into agreement subsets (edits
proposed only by system A, only by system B, or by both), counts per
(error-type, subset) true and false positives against a reference, and
chooses which cells to keep so that corpus-level F_beta is maximized.

With FN = gold_total - TP, the objective is

    F(S) = (1 + b^2) * TP(S) / (TP(S) + FP(S) + b^2 * gold_total)

where TP and FP are linear in the per-cell selection variables S in
[0, 1]. A ratio of affine functions over a box always attains its
maximum at a vertex, so an all-binary optimum exists; it is found by
iterated ratio improvement: at ratio `lam`, keep exactly the cells with
(1 + b^2) * tp > lam * (tp + fp), then update `lam` to the achieved F
and repeat until it stops increasing. The achieved ratio is strictly
increasing over finitely many binary assignments, so the loop
terminates at the optimum.

More than two systems are combined by a left fold that trains a fresh
policy at each pairwise step; a single system is "filtered" by
combining it with an empty system, which drops its weak error types.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

from .core import AnnotatedSentence, Edit, M2Corpus, spans_overlap
from .fileio import atomic_write, json_field, json_object
from .rng import SplitMix64
from .score import CorpusAlignmentError, check_same_sources

POLICY_VERSION = 1


class Subset(Enum):
    """Which system(s) proposed an edit."""

    ONLY_A = "only_a"
    ONLY_B = "only_b"
    BOTH = "both"


_SUBSET_RANK = {Subset.BOTH: 0, Subset.ONLY_A: 1, Subset.ONLY_B: 2}


@dataclass(frozen=True)
class SystemOutput:
    """A named system's corrections over a shared set of source sentences."""

    name: str
    corpus: M2Corpus


@dataclass(frozen=True)
class CellStats:
    """Dev-set TP/FP counts for one (error type, agreement subset) cell."""

    etype: str
    subset: Subset
    tp: int
    fp: int

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0:
            raise ValueError("counts must be >= 0")


@dataclass(frozen=True)
class StatsTable:
    """All cell counts plus reference totals from one development set."""

    cells: tuple[CellStats, ...]
    gold_total_per_type: Mapping[str, int]
    gold_total: int

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "gold_total_per_type", dict(self.gold_total_per_type))
        if self.gold_total != sum(self.gold_total_per_type.values()):
            raise ValueError("gold_total does not match the per-type totals")
        tp_per_type: Counter[str] = Counter()
        for cell in self.cells:
            tp_per_type[cell.etype] += cell.tp
        for etype, tp in tp_per_type.items():
            if tp > self.gold_total_per_type.get(etype, 0):
                raise ValueError(
                    f"type {etype}: {tp} true positives exceed the reference total"
                )


@dataclass(frozen=True)
class PolicyEntry:
    """Selection value for one cell plus the statistics it was learned from."""

    s: float
    tp: int
    fp: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0


@dataclass(frozen=True)
class SelectionPolicy:
    """A trained keep/drop rule per (error type, agreement subset).

    Selection values live in [0, 1]; with rounding mode "round" they are
    strictly 0 or 1. Cells never observed during training default to 0
    at application time (unknown-quality edits are dropped).
    """

    beta: float
    min_samples: int
    entries: dict[tuple[str, Subset], PolicyEntry] = field(default_factory=dict)
    dev_name: str = ""
    created: str = ""
    system_names: tuple[str, str] = ("", "")

    def s_value(self, etype: str, subset: Subset) -> float:
        entry = self.entries.get((etype, subset))
        return entry.s if entry is not None else 0.0


def partition_pair(a: SystemOutput, b: SystemOutput) -> list[list[tuple[Subset, Edit]]]:
    """Tag each sentence's edits with the agreement subset they fall in.

    Edits are compared by (start, end, replacement) key per sentence;
    corrections proposed by both systems are tagged BOTH and carry
    system A's type label and annotator. One list per sentence holds the
    BOTH, then ONLY_A, then ONLY_B edits, each group in (start, end,
    annotator) order, which is the order apply_policy draws its random
    numbers in. Keys are distinct within a list, and their union equals
    the union of the inputs' keys; a key that one system repeats under
    several annotators appears once, as its last annotator's edit.
    """
    check_same_sources(a.corpus, b.corpus)
    parts: list[list[tuple[Subset, Edit]]] = []
    for sent_a, sent_b in zip(a.corpus, b.corpus):
        keys_a = {e.key: e for e in sent_a.edits}
        keys_b = {e.key: e for e in sent_b.edits}
        tagged = [(Subset.BOTH if k in keys_b else Subset.ONLY_A, e) for k, e in keys_a.items()]
        tagged += [(Subset.ONLY_B, e) for k, e in keys_b.items() if k not in keys_a]
        tagged.sort(key=lambda p: (_SUBSET_RANK[p[0]], p[1].start, p[1].end, p[1].annotator))
        parts.append(tagged)
    return parts


def build_stats(
    parts: Sequence[Sequence[tuple[Subset, Edit]]],
    gold: M2Corpus,
    annotator: int = 0,
) -> StatsTable:
    """Count per-cell TP/FP of partition_pair's tagged edits in one pass.

    An edit is a true positive of the type of the reference edit with its
    key, else a false positive of its own type; keys are distinct within
    a sentence, so each reference edit matches at most once. Cells with
    neither are omitted; reference totals come from the gold corpus
    alone, so FN per selection is always gold_total minus the selected
    TP. The tagged lists hold no tokens: callers check the sources.
    """
    if len(parts) != len(gold):
        raise CorpusAlignmentError(
            min(len(parts), len(gold)),
            f"sentence counts differ ({len(parts)} vs {len(gold)})",
        )
    gold_counts: Counter[str] = Counter()
    counts: dict[tuple[str, Subset], list[int]] = {}
    for tagged, gold_sent in zip(parts, gold):
        gold_by_key = {e.key: e for e in gold_sent.edits if e.annotator == annotator}
        gold_counts.update(ref.etype for ref in gold_by_key.values())
        for subset, e in tagged:
            ref = gold_by_key.get(e.key)
            tp_fp = counts.setdefault((e.etype if ref is None else ref.etype, subset), [0, 0])
            tp_fp[ref is None] += 1
    cells = [CellStats(etype, subset, tp, fp) for (etype, subset), (tp, fp) in counts.items()]
    cells.sort(key=lambda c: (c.etype, c.subset.value))
    return StatsTable(tuple(cells), dict(gold_counts), sum(gold_counts.values()))


def optimize_selection(
    stats: StatsTable,
    beta: float = 0.5,
    min_samples: int = 2,
    rounding: str = "round",
) -> SelectionPolicy:
    """Choose the selection values that maximize F_beta on `stats`.

    Cells with fewer than `min_samples` hypothesis edits (tp + fp) carry
    unreliable statistics and are forced to 0 before optimization; pass
    min_samples=0 to disable. At the optimum a cell can be exactly
    indifferent, leaving F unchanged whether it is kept or dropped:
    rounding "round" sets such cells to 0 (emitting fewer edits at equal
    F), while "sample" records 0.5 so application keeps them with that
    probability.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if min_samples < 0:
        raise ValueError("min_samples must be >= 0")
    if rounding not in ("round", "sample"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    b2 = beta * beta
    gold_total = stats.gold_total
    eligible = [c for c in stats.cells if c.tp + c.fp >= min_samples]
    lam = 0.0
    for _ in range(100):
        tp = fp = 0
        for c in eligible:
            if (1 + b2) * c.tp - lam * (c.tp + c.fp) > 0:
                tp += c.tp
                fp += c.fp
        den = tp + fp + b2 * gold_total
        new_lam = (1 + b2) * tp / den if tp > 0 else 0.0
        if new_lam <= lam:
            break
        lam = new_lam
    entries: dict[tuple[str, Subset], PolicyEntry] = {}
    for c in stats.cells:
        if c.tp + c.fp < min_samples:
            s = 0.0
        else:
            margin = (1 + b2) * c.tp - lam * (c.tp + c.fp)
            if margin > 0:
                s = 1.0
            elif margin == 0 and rounding == "sample" and c.tp > 0:
                s = 0.5
            else:
                s = 0.0
        entries[(c.etype, c.subset)] = PolicyEntry(s, c.tp, c.fp)
    return SelectionPolicy(beta=beta, min_samples=min_samples, entries=entries)


def train_policy(
    a: SystemOutput,
    b: SystemOutput,
    gold: M2Corpus,
    *,
    beta: float = 0.5,
    annotator: int = 0,
    min_samples: int = 2,
    rounding: str = "round",
    dev_name: str = "",
    created: str = "",
) -> SelectionPolicy:
    """Partition, count, and optimize in one step, recording provenance."""
    parts = partition_pair(a, b)
    check_same_sources(a.corpus, gold)
    stats = build_stats(parts, gold, annotator)
    policy = optimize_selection(stats, beta=beta, min_samples=min_samples, rounding=rounding)
    return replace(
        policy, dev_name=dev_name, created=created, system_names=(a.name, b.name)
    )


def apply_policy(
    a: SystemOutput,
    b: SystemOutput,
    policy: SelectionPolicy,
    seed: int = 0,
) -> M2Corpus:
    """Combine two systems' outputs under a trained policy.

    Each edit is looked up by its own type label and agreement subset;
    cells with s == 1 are kept, s == 0 dropped, and fractional values
    kept with probability s using a seeded generator. Surviving edits
    that still overlap are arbitrated deterministically: agreement edits
    beat single-system ones (BOTH > ONLY_A > ONLY_B), then earlier
    start, shorter span, smaller replacement. Kept edits are emitted as
    annotator 0, since the merged corpus represents a single system.
    """
    rng = SplitMix64(seed)
    out_sentences: list[AnnotatedSentence] = []
    for source, tagged in zip(a.corpus, partition_pair(a, b)):
        kept: list[tuple[Subset, Edit]] = []
        for subset, e in tagged:
            s = policy.s_value(e.etype, subset)
            if s >= 1.0:
                keep = True
            elif s <= 0.0:
                keep = False
            else:
                keep = rng.random() < s
            if keep:
                kept.append((subset, e))
        kept.sort(
            key=lambda pair: (
                _SUBSET_RANK[pair[0]],
                pair[1].start,
                pair[1].end - pair[1].start,
                pair[1].replacement,
            )
        )
        accepted: list[Edit] = []
        for _, e in kept:
            if any(spans_overlap(e.start, e.end, x.start, x.end) for x in accepted):
                continue
            accepted.append(Edit(e.start, e.end, e.etype, e.replacement, 0))
        out_sentences.append(AnnotatedSentence(source.tokens, tuple(accepted)))
    return M2Corpus(tuple(out_sentences))


def combine_iterative(
    systems: Sequence[SystemOutput],
    gold_dev: M2Corpus,
    *,
    beta: float = 0.5,
    annotator: int = 0,
    min_samples: int = 2,
    rounding: str = "round",
    seed: int = 0,
    dev_name: str = "",
) -> tuple[M2Corpus, list[SelectionPolicy]]:
    """Combine N systems by folding pairwise, left to right.

    Each step trains a fresh policy on the development reference and
    applies it, so the running combination accumulates the systems one
    by one. Returns the final development-set corpus together with the
    per-step policies, which can be replayed in the same order (via
    apply_policy alone) on unseen data.
    """
    if len(systems) < 2:
        raise ValueError("need at least two systems to combine")
    current = systems[0]
    policies: list[SelectionPolicy] = []
    for nxt in systems[1:]:
        policy = train_policy(
            current,
            nxt,
            gold_dev,
            beta=beta,
            annotator=annotator,
            min_samples=min_samples,
            rounding=rounding,
            dev_name=dev_name,
        )
        merged = apply_policy(current, nxt, policy, seed=seed)
        current = SystemOutput(f"{current.name}+{nxt.name}", merged)
        policies.append(policy)
    return current.corpus, policies


def empty_system(like: M2Corpus, name: str = "") -> SystemOutput:
    """A system that proposes no corrections over the given sources."""
    return SystemOutput(
        name, M2Corpus(tuple(AnnotatedSentence(s.tokens, ()) for s in like))
    )


def filter_system(
    a: SystemOutput,
    gold_dev: M2Corpus,
    *,
    beta: float = 0.5,
    annotator: int = 0,
    min_samples: int = 2,
    rounding: str = "round",
    dev_name: str = "",
) -> tuple[SelectionPolicy, M2Corpus]:
    """Drop the error types a single system performs poorly on.

    Degenerate combination with an empty second system: only ONLY_A
    cells exist, so the optimizer reduces to a per-type keep/drop that
    can only remove harmful corrections.
    """
    b = empty_system(a.corpus)
    policy = train_policy(
        a,
        b,
        gold_dev,
        beta=beta,
        annotator=annotator,
        min_samples=min_samples,
        rounding=rounding,
        dev_name=dev_name,
    )
    return policy, apply_policy(a, b, policy)


def policy_to_json_dict(policy: SelectionPolicy) -> dict:
    """Serializable form of a policy with stable field and entry order."""
    entries = []
    for (etype, subset), entry in sorted(
        policy.entries.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        entries.append(
            {
                "etype": etype,
                "subset": subset.value,
                "s": entry.s,
                "tp": entry.tp,
                "fp": entry.fp,
                "precision": entry.precision,
            }
        )
    return {
        "version": POLICY_VERSION,
        "beta": policy.beta,
        "min_samples": policy.min_samples,
        "entries": entries,
        "metadata": {
            "dev_name": policy.dev_name,
            "created": policy.created,
            "system_names": list(policy.system_names),
        },
    }


def policy_from_json_dict(data: dict) -> SelectionPolicy:
    """Policy from its JSON form; any missing key or wrong type is a ValueError."""
    data = json_object(data, "policy")
    version = data.get("version")
    if version != POLICY_VERSION:
        raise ValueError(f"unsupported policy version {version!r}")
    entries: dict[tuple[str, Subset], PolicyEntry] = {}
    for item in json_field(data, "entries", list, "policy"):
        item = json_object(item, "policy entry")
        etype, subset, s, tp, fp = (
            json_field(item, key, types, "policy entry")
            for key, types in (("etype", str), ("subset", str), ("s", (int, float)), ("tp", int), ("fp", int))
        )
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"selection value {s} outside [0, 1]")
        entries[(etype, Subset(subset))] = PolicyEntry(float(s), tp, fp)
    metadata = json_object(data.get("metadata", {}), "policy metadata")
    names = json_field(metadata, "system_names", list, "policy metadata", default=[])
    if not all(isinstance(name, str) for name in names):
        raise ValueError("policy metadata: 'system_names' must hold strings")
    return SelectionPolicy(
        beta=float(json_field(data, "beta", (int, float), "policy")),
        min_samples=json_field(data, "min_samples", int, "policy"),
        entries=entries,
        dev_name=json_field(metadata, "dev_name", str, "policy metadata", default=""),
        created=json_field(metadata, "created", str, "policy metadata", default=""),
        system_names=(tuple(names) + ("", ""))[:2],
    )


def save_policy(path: str | os.PathLike, policy: SelectionPolicy) -> None:
    with atomic_write(path) as fh:
        json.dump(policy_to_json_dict(policy), fh, indent=2)
        fh.write("\n")


def load_policy(path: str | os.PathLike) -> SelectionPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        return policy_from_json_dict(json.load(fh))
