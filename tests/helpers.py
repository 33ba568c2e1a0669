"""Shared random fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: the
alignment oracle tries every monotone op sequence, the selection oracle
walks all binary assignments, the binomial oracle works in exact
rational arithmetic, the synth applicability oracle tries every
combination of occurrence spans, and the combine statistics oracle
builds the three agreement-subset corpora and scores each with
match_edits. Reference functions that only tests use (an op sequence's
alignment cost, plain Levenshtein distance) live here too.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

from gecmerge import AnnotatedSentence, Edit, M2Corpus, spans_overlap
from gecmerge.align import MATCH, SUBSTITUTE, AlignmentOp
from gecmerge.combine import CellStats, StatsTable, Subset, SystemOutput
from gecmerge.score import check_same_sources, match_edits

VOCAB = (
    "the a an cat dog sat on mat he she it go goes home fast very in at "
    "big red blue ran runs quickly slowly . , ! good great New new"
).split()

ETYPES = ("M:DET", "U:DET", "R:VERB", "R:SPELL", "R:OTHER", "M:PUNCT", "R:PREP")


def random_tokens(rng: random.Random, lo: int = 3, hi: int = 9) -> tuple[str, ...]:
    return tuple(rng.choice(VOCAB) for _ in range(rng.randint(lo, hi)))


def random_edits(rng: random.Random, n_tokens: int, max_edits: int = 3, annotator: int = 0):
    """A valid (pairwise non-overlapping) random edit set for one sentence."""
    edits: list[Edit] = []
    for _ in range(rng.randint(0, max_edits)):
        for _attempt in range(12):
            if rng.random() < 0.25 or n_tokens == 0:
                start = end = rng.randint(0, n_tokens)
                replacement = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 2)))
            else:
                start = rng.randrange(n_tokens)
                end = min(n_tokens, start + rng.randint(1, 2))
                if rng.random() < 0.25:
                    replacement = ""
                else:
                    replacement = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 2)))
            cand = Edit(start, end, rng.choice(ETYPES), replacement, annotator)
            if all(not spans_overlap(cand.start, cand.end, e.start, e.end) for e in edits):
                edits.append(cand)
                break
    return tuple(edits)


def random_corpus(
    rng: random.Random,
    min_sentences: int = 1,
    max_sentences: int = 6,
    annotators: tuple[int, ...] = (0,),
    max_edits: int = 3,
) -> M2Corpus:
    sentences = []
    for _ in range(rng.randint(min_sentences, max_sentences)):
        tokens = random_tokens(rng)
        edits: list[Edit] = []
        for annotator in annotators:
            edits.extend(random_edits(rng, len(tokens), max_edits, annotator))
        sentences.append(AnnotatedSentence(tokens, tuple(edits)))
    return M2Corpus(tuple(sentences))


def random_system_pair(
    rng: random.Random,
    min_sentences: int = 2,
    max_sentences: int = 6,
    annotators: tuple[int, ...] = (0,),
):
    """Two systems over shared sources, with some corrections in common.

    Cross-system overlapping-but-different edits are possible, which is
    what partition algebra tests need. With several annotators, each
    picks from the same shared edits, so one system can repeat a key
    under several annotators.
    """
    sents_a, sents_b = [], []
    for _ in range(rng.randint(min_sentences, max_sentences)):
        tokens = random_tokens(rng)
        shared = random_edits(rng, len(tokens), max_edits=3)
        edits_a, edits_b = [], []
        for annotator in annotators:
            a = [replace(e, annotator=annotator) for e in shared if rng.random() < 0.7]
            b = [replace(e, annotator=annotator) for e in shared if rng.random() < 0.7]
            for target in (a, b):
                for e in random_edits(rng, len(tokens), max_edits=2, annotator=annotator):
                    if all(not spans_overlap(e.start, e.end, x.start, x.end) for x in target):
                        target.append(e)
            edits_a += a
            edits_b += b
        sents_a.append(AnnotatedSentence(tokens, tuple(edits_a)))
        sents_b.append(AnnotatedSentence(tokens, tuple(edits_b)))
    return (
        SystemOutput("a", M2Corpus(tuple(sents_a))),
        SystemOutput("b", M2Corpus(tuple(sents_b))),
    )


def random_gold(rng: random.Random, a: SystemOutput, b: SystemOutput, annotators=(0, 1)) -> M2Corpus:
    """A reference over the systems' sources whose annotators each take
    some of the systems' corrections (relabelled) plus random ones."""
    sentences = []
    for sent_a, sent_b in zip(a.corpus, b.corpus):
        edits: list[Edit] = []
        for annotator in annotators:
            chosen: list[Edit] = []
            pool = sent_a.edits + sent_b.edits + random_edits(rng, len(sent_a.tokens))
            for e in pool:
                if rng.random() < 0.5 and all(
                    not spans_overlap(e.start, e.end, x.start, x.end) for x in chosen
                ):
                    chosen.append(Edit(e.start, e.end, rng.choice(ETYPES), e.replacement, annotator))
            edits += chosen
        sentences.append(AnnotatedSentence(sent_a.tokens, tuple(edits)))
    return M2Corpus(tuple(sentences))


def slot_fixture(rng: random.Random, n_systems: int = 2, n_sentences: int = 8):
    """Systems and gold drawn from shared per-sentence edit slots.

    Each slot carries one canonical edit; every corpus either proposes a
    slot's edit verbatim or skips it. Any two corpora's edits therefore
    coincide exactly (same key and label) or touch disjoint spans, so
    combining never needs overlap arbitration and the counted statistics
    match the applied corpora exactly, which the dev-set dominance
    argument relies on.
    """
    gold_sents = []
    system_sents: list[list[AnnotatedSentence]] = [[] for _ in range(n_systems)]
    for _ in range(n_sentences):
        tokens = random_tokens(rng, 4, 10)
        slots: list[Edit] = []
        pos = 0
        while pos < len(tokens) and len(slots) < 4:
            roll = rng.random()
            if roll < 0.2:
                slots.append(Edit(pos, pos, rng.choice(ETYPES), rng.choice(VOCAB)))
                pos += 1
            elif roll < 0.75:
                start = pos
                end = min(len(tokens), start + rng.randint(1, 2))
                if rng.random() < 0.25:
                    replacement = ""
                else:
                    replacement = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 2)))
                slots.append(Edit(start, end, rng.choice(ETYPES), replacement))
                pos = end + 1
            else:
                pos += 1
        gold_sents.append(
            AnnotatedSentence(tokens, tuple(e for e in slots if rng.random() < 0.6))
        )
        for k in range(n_systems):
            system_sents[k].append(
                AnnotatedSentence(tokens, tuple(e for e in slots if rng.random() < 0.5))
            )
    gold = M2Corpus(tuple(gold_sents))
    systems = [
        SystemOutput(f"sys{k}", M2Corpus(tuple(system_sents[k])))
        for k in range(n_systems)
    ]
    return systems, gold


def perturb_tokens(rng: random.Random, tokens) -> list[str]:
    """Random token-level corruption for alignment round-trip tests."""
    out: list[str] = []
    for tok in tokens:
        roll = rng.random()
        if roll < 0.12:
            pass  # drop the token
        elif roll < 0.22:
            out.append(rng.choice(VOCAB))
        elif roll < 0.30:
            flipped = tok.upper() if tok == tok.lower() else tok.lower()
            out.append(flipped)
        else:
            out.append(tok)
        if rng.random() < 0.12:
            out.append(rng.choice(VOCAB))
    return out


def alignment_cost(ops: Sequence[AlignmentOp], source: Sequence[str], target: Sequence[str]) -> float:
    """Total cost of an op sequence under the align_tokens cost model."""
    total = 0.0
    for op in ops:
        if op.kind == MATCH:
            continue
        if op.kind == SUBSTITUTE:
            src_tok = source[op.src_start]
            tgt_tok = target[op.tgt_start]
            total += 0.5 if src_tok.lower() == tgt_tok.lower() else 1.0
        else:
            total += 1.0
    return total


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance: insert, delete, substitute, all cost 1."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def exhaustive_alignment_cost(source, target) -> float:
    """Minimum alignment cost by trying every monotone op sequence."""
    best = [float("inf")]
    n, m = len(source), len(target)

    def rec(i: int, j: int, cost: float) -> None:
        if cost >= best[0]:
            return
        if i == n and j == m:
            best[0] = cost
            return
        if i < n and j < m:
            if source[i] == target[j]:
                step = 0.0
            elif source[i].lower() == target[j].lower():
                step = 0.5
            else:
                step = 1.0
            rec(i + 1, j + 1, cost + step)
        if i < n:
            rec(i + 1, j, cost + 1.0)
        if j < m:
            rec(i, j + 1, cost + 1.0)

    rec(0, 0, 0.0)
    return best[0]


def brute_force_best_f(cells, gold_total: int, beta: float) -> float:
    """Maximum F over all 2^n binary cell selections, via a Gray-code walk."""
    b2 = beta * beta
    n = len(cells)
    tp = fp = 0
    selected = [False] * n
    best = 0.0
    for i in range(1, 1 << n):
        bit = (i & -i).bit_length() - 1
        if selected[bit]:
            tp -= cells[bit].tp
            fp -= cells[bit].fp
            selected[bit] = False
        else:
            tp += cells[bit].tp
            fp += cells[bit].fp
            selected[bit] = True
        if tp > 0:
            f = (1 + b2) * tp / (tp + fp + b2 * gold_total)
            if f > best:
                best = f
    return best


def policy_f(policy, gold_total: int) -> float:
    """F achieved by a policy's recorded selection over its own stats."""
    b2 = policy.beta * policy.beta
    tp = sum(e.tp for e in policy.entries.values() if e.s >= 1.0)
    fp = sum(e.fp for e in policy.entries.values() if e.s >= 1.0)
    if tp == 0:
        return 0.0
    return (1 + b2) * tp / (tp + fp + b2 * gold_total)


def random_stats_table(rng: random.Random, max_cells: int = 12, max_count: int = 50) -> StatsTable:
    n_types = rng.randint(1, 4)
    types = [f"T{i}" for i in range(n_types)]
    combos = [(t, s) for t in types for s in Subset]
    rng.shuffle(combos)
    n_cells = rng.randint(1, min(max_cells, len(combos)))
    cells = []
    tp_per_type: Counter[str] = Counter()
    for etype, subset in combos[:n_cells]:
        tp = rng.randint(0, max_count)
        fp = rng.randint(0, max_count)
        if tp == 0 and fp == 0:
            fp = 1
        cells.append(CellStats(etype, subset, tp, fp))
        tp_per_type[etype] += tp
    gold_per_type = {t: tp_per_type[t] + rng.randint(0, 10) for t in types}
    cells.sort(key=lambda c: (c.etype, c.subset.value))
    return StatsTable(tuple(cells), gold_per_type, sum(gold_per_type.values()))


def subset_corpora_oracle(a: SystemOutput, b: SystemOutput) -> dict[Subset, M2Corpus]:
    """The agreement subsets as three validated corpora over A's sources.

    Keys are compared per sentence; a key both systems propose takes
    system A's edit, and a key one system repeats under several
    annotators keeps its last annotator's edit. Each AnnotatedSentence
    puts its edits in (start, end, annotator) order.
    """
    check_same_sources(a.corpus, b.corpus)
    sentences: dict[Subset, list[AnnotatedSentence]] = {subset: [] for subset in Subset}
    for sent_a, sent_b in zip(a.corpus, b.corpus):
        keys_a = {e.key: e for e in sent_a.edits}
        keys_b = {e.key: e for e in sent_b.edits}
        members = {
            Subset.ONLY_A: [e for k, e in keys_a.items() if k not in keys_b],
            Subset.ONLY_B: [e for k, e in keys_b.items() if k not in keys_a],
            Subset.BOTH: [e for k, e in keys_a.items() if k in keys_b],
        }
        for subset, edits in members.items():
            sentences[subset].append(AnnotatedSentence(sent_a.tokens, tuple(edits)))
    return {subset: M2Corpus(tuple(sents)) for subset, sents in sentences.items()}


def stats_oracle(corpora: dict[Subset, M2Corpus], gold: M2Corpus, annotator: int = 0) -> StatsTable:
    """Cell counts summed from one match_edits run per subset corpus."""
    gold_counts = Counter(
        e.etype for sent in gold for e in sent.edits if e.annotator == annotator
    )
    cells = [
        CellStats(etype, subset, st.tp, st.fp)
        for subset, corpus in corpora.items()
        for etype, st in match_edits(corpus, gold, annotator).items()
        if st.tp or st.fp
    ]
    cells.sort(key=lambda c: (c.etype, c.subset.value))
    return StatsTable(tuple(cells), gold_counts, sum(gold_counts.values()))


def binomial_deviation_oracle(n: int, p: float, delta: float) -> float:
    """Exact-rational P(|X/n - p| >= delta) for X ~ Binomial(n, p).

    With p = a/m in lowest terms, P(X = k) = C(n, k) a^k b^(n-k) / m^n
    where b = m - a. The numerators are exact integers, each derived
    from the previous one by an exact division, so large n stays fast.
    """
    P, D = Fraction(p), Fraction(delta)
    a, m = P.numerator, P.denominator
    b = m - a
    if a == 0 or b == 0:
        return float(D == 0)  # all mass on X = n * p, which deviates by 0
    term = b**n  # k = 0
    total = 0
    for k in range(n + 1):
        if abs(Fraction(k, n) - P) >= D:
            total += term
        term = term * (n - k) * a // ((k + 1) * b)
    return total / m**n


def synth_applicable_oracle(tokens, corrections) -> bool:
    """Whether some choice of one occurrence per find admits every correction.

    Tries every combination of occurrence spans. Spans must pairwise not
    overlap; the spans of two insertion corrections must not touch
    either, since undoing both would put their gold insertions at one
    position; and the positions outside every span's interior must hold
    the deletion corrections, one each.
    """
    finders = [c for c in corrections if c.kind != "deletion"]
    n_inserts = len(corrections) - len(finders)
    occurrences = []
    for c in finders:
        find = list(c.find_tokens)
        w = len(find)
        occurrences.append(
            [(i, i + w) for i in range(len(tokens) - w + 1) if list(tokens[i:i + w]) == find]
        )
    for spans in itertools.product(*occurrences):
        ok = True
        for (a, (sa, ea)), (b, (sb, eb)) in itertools.combinations(enumerate(spans), 2):
            if spans_overlap(sa, ea, sb, eb):
                ok = False
            elif finders[a].kind == finders[b].kind == "insertion" and (ea == sb or eb == sa):
                ok = False
        interior = {p for s, e in spans for p in range(s + 1, e)}
        if ok and len(tokens) + 1 - len(interior) >= n_inserts:
            return True
    return False
