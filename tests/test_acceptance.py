"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Expected values come from independent oracles defined in
helpers.py (exhaustive alignment search, Gray-code enumeration of all
binary selections, exact rational binomial tails) or from hand-verified
fixtures; tolerances and runtime budgets are asserted as stated.
"""

import random
import time
from pathlib import Path

from gecmerge import (
    AnnotatedSentence,
    Edit,
    M2Corpus,
    apply_edits,
    apply_policy,
    build_model,
    combine_iterative,
    correct_sentence,
    extract_edits,
    f_beta_from_counts,
    filter_system,
    generate_corpus,
    optimize_selection,
    parse_m2,
    partition_pair,
    precision_stability,
    score_corpus,
    train_policy,
    write_m2,
)
from gecmerge.align import align_tokens
from gecmerge.combine import PolicyEntry, SelectionPolicy, Subset, SystemOutput
from gecmerge.synth import CorrectionId, ErrorDistribution
from helpers import (
    alignment_cost,
    binomial_deviation_oracle,
    brute_force_best_f,
    exhaustive_alignment_cost,
    perturb_tokens,
    policy_f,
    random_corpus,
    random_stats_table,
    random_system_pair,
    random_tokens,
    slot_fixture,
)

DATA = Path(__file__).parent / "data"


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_f_beta_spot_checks():
    cases = [
        (0.6721, 0.5297, 0.6378),
        (0.4788, 0.1544, 0.3371),
        (0.5336, 0.6977, 0.5599),
    ]
    start = time.perf_counter()
    results = [
        f_beta_from_counts(1.0, 1 / precision - 1, 1 / recall - 1, 0.5)
        for precision, recall, _ in cases
    ]
    elapsed = time.perf_counter() - start
    ok = all(
        abs(got - expected) <= 5e-4
        for got, (_, _, expected) in zip(results, cases)
    )
    ok = ok and elapsed < 1e-3
    _report(
        "criterion 1: F-beta formula spot checks within 0.0005",
        ok,
        f"values {[round(v, 4) for v in results]}, {elapsed * 1e6:.0f} us",
    )


def test_criterion_2_optimizer_exactness():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        table = random_stats_table(rng, max_cells=12, max_count=50)
        policy = optimize_selection(table, beta=0.5, min_samples=0)
        got = policy_f(policy, table.gold_total)
        want = brute_force_best_f(table.cells, table.gold_total, 0.5)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: optimizer matches brute force on 500 random tables",
        worst < 1e-9 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_dev_set_dominance():
    rng = random.Random(103)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        (a, b), gold = slot_fixture(rng)
        policy = train_policy(a, b, gold, min_samples=0)
        combined = apply_policy(a, b, policy)
        f_combined = score_corpus(combined, gold)[0].f_beta
        f_a = score_corpus(a.corpus, gold)[0].f_beta
        f_b = score_corpus(b.corpus, gold)[0].f_beta
        if f_combined < max(f_a, f_b) - 1e-9:
            ok = False
            break
    monotone = True
    for _ in range(30):
        systems, gold = slot_fixture(rng, n_systems=4)
        current = systems[0]
        f_current = score_corpus(current.corpus, gold)[0].f_beta
        for nxt in systems[1:]:
            combined, _ = combine_iterative([current, nxt], gold, min_samples=0)
            f_next = score_corpus(nxt.corpus, gold)[0].f_beta
            f_combined = score_corpus(combined, gold)[0].f_beta
            if f_combined < max(f_current, f_next) - 1e-9:
                monotone = False
                break
            current = SystemOutput("fold", combined)
            f_current = f_combined
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3: combination dominates both systems on dev",
        ok and monotone and elapsed < 30.0,
        f"200 pairs, 30 four-system folds, {elapsed:.2f} s",
    )


def test_criterion_4_filtering_never_hurts():
    rng = random.Random(107)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        (a, _), gold = slot_fixture(rng)
        _, filtered = filter_system(a, gold, min_samples=0)
        if score_corpus(filtered, gold)[0].f_beta < score_corpus(a.corpus, gold)[0].f_beta - 1e-12:
            ok = False
            break
    # constructed fixture with one zero-precision error type: dropping it
    # must raise precision and F together
    tokens = [("a", "b", "c", "d")] * 4
    good = [Edit(0, 1, "R:GOOD", f"g{i}") for i in range(4)]
    bad = [Edit(2, 3, "R:BAD", f"w{i}") for i in range(4)]
    system = SystemOutput(
        "sys",
        M2Corpus(tuple(AnnotatedSentence(t, (g, w)) for t, g, w in zip(tokens, good, bad))),
    )
    gold = M2Corpus(tuple(AnnotatedSentence(t, (g,)) for t, g in zip(tokens, good)))
    _, filtered = filter_system(system, gold)
    before = score_corpus(system.corpus, gold)[0]
    after = score_corpus(filtered, gold)[0]
    directional = after.precision > before.precision and after.f_beta > before.f_beta
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: filtering never hurts dev F",
        ok and directional and elapsed < 10.0,
        f"200 fixtures; zero-precision fixture P {before.precision:.2f}->{after.precision:.2f}, "
        f"F {before.f_beta:.3f}->{after.f_beta:.3f}, {elapsed:.2f} s",
    )


def test_criterion_5_m2_round_trip():
    rng = random.Random(109)
    ok = True
    for _ in range(1000):
        corpus = random_corpus(rng, annotators=(0,) if rng.random() < 0.5 else (0, 1))
        text = write_m2(corpus)
        if parse_m2(text) != corpus or write_m2(parse_m2(text)) != text:
            ok = False
            break
    golden = (DATA / "golden.m2").read_text(encoding="utf-8")
    byte_identical = write_m2(parse_m2(golden)) == golden
    _report(
        "criterion 5: M2 round-trip identities and golden re-emission",
        ok and byte_identical,
        "1000 corpora",
    )


def test_criterion_6_alignment_soundness():
    rng = random.Random(113)
    ok = True
    for _ in range(1000):
        source = list(random_tokens(rng, 0, 10))
        target = perturb_tokens(rng, source)
        if apply_edits(source, extract_edits(source, target)) != target:
            ok = False
            break
    oracle_ok = True
    for _ in range(250):
        source = list(random_tokens(rng, 0, 6))
        target = perturb_tokens(rng, source)[:6]
        got = alignment_cost(align_tokens(source, target), source, target)
        if abs(got - exhaustive_alignment_cost(source, target)) > 1e-12:
            oracle_ok = False
            break
    _report(
        "criterion 6: alignment reproduces targets and matches the exhaustive oracle",
        ok and oracle_ok,
        "1000 perturbation pairs, 250 oracle pairs",
    )


def _build_spell_fixture(rng):
    """Independent typo-injection script: corpora, typos, expectations."""
    letters = "abcdefghijklmnopqrstuvwxyz"

    def make_word(lo=6, hi=9):
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

    frequent = set()
    while len(frequent) < 60:
        frequent.add(make_word())
    frequent = sorted(frequent)
    dictionary = set()
    while len(dictionary) < 15:
        word = make_word()
        if word not in frequent:
            dictionary.add(word)
    dictionary = sorted(dictionary)

    sentences = []
    for _ in range(500):
        toks = [rng.choice(frequent) for _ in range(rng.randint(6, 10))]
        if rng.random() < 0.4:
            toks[rng.randrange(len(toks))] = rng.choice(dictionary)
        sentences.append(toks)
    model = build_model([" ".join(t) for t in sentences], dictionary)

    def known(word):
        return model.counts.get(word, 0) >= 3 or word in dictionary

    def swap_typo(word):
        for _ in range(20):
            i, j = sorted(rng.sample(range(len(word)), 2))
            if word[i] != word[j]:
                chars = list(word)
                chars[i], chars[j] = chars[j], chars[i]
                typo = "".join(chars)
                if not known(typo):
                    return typo
        return None

    def lev1_typo(word):
        for _ in range(20):
            op = rng.choice(["insert", "delete", "substitute"])
            pos = rng.randrange(len(word))
            if op == "insert":
                typo = word[:pos] + rng.choice(letters) + word[pos:]
            elif op == "delete":
                typo = word[:pos] + word[pos + 1:]
            else:
                typo = word[:pos] + rng.choice(letters.replace(word[pos], "")) + word[pos + 1:]
            if typo != word and len(typo) >= 3 and not known(typo):
                return typo
        return None

    def unambiguous_concat(left, right):
        merged = left + right
        if known(merged):
            return False
        for i in range(1, len(merged)):
            if known(merged[:i]) and known(merged[i:]):
                return i == len(left)
        return False

    corrupted = [list(t) for t in sentences]
    typos = []  # (sentence, position, kind, expected tokens)
    used = set()
    budget = {"swap": 150, "lev1": 100, "concat": 50}
    attempts = 0
    while sum(budget.values()) > 0 and attempts < 100_000:
        attempts += 1
        sent_idx = rng.randrange(len(sentences))
        if sent_idx in used:
            continue
        toks = sentences[sent_idx]
        kind = rng.choice([k for k, n in budget.items() if n > 0])
        if kind == "concat":
            candidates = [
                i
                for i in range(len(toks) - 1)
                if model.counts.get(toks[i], 0) > 20
                and model.counts.get(toks[i + 1], 0) > 20
                and unambiguous_concat(toks[i], toks[i + 1])
            ]
            if not candidates:
                continue
            pos = rng.choice(candidates)
            corrupted[sent_idx] = toks[:pos] + [toks[pos] + toks[pos + 1]] + toks[pos + 2:]
            typos.append((sent_idx, pos, kind, [toks[pos], toks[pos + 1]]))
        else:
            candidates = [
                i for i, tok in enumerate(toks) if model.counts.get(tok, 0) > 20
            ]
            if not candidates:
                continue
            pos = rng.choice(candidates)
            typo = swap_typo(toks[pos]) if kind == "swap" else lev1_typo(toks[pos])
            if typo is None:
                continue
            corrupted[sent_idx] = toks[:pos] + [typo] + toks[pos + 1:]
            typos.append((sent_idx, pos, kind, [toks[pos]]))
        used.add(sent_idx)
        budget[kind] -= 1
    assert sum(budget.values()) == 0, "typo injection failed to fill its budget"
    return model, sentences, corrupted, typos, set(dictionary)


def test_criterion_7_spellchecker_contract():
    rng = random.Random(127)
    start = time.perf_counter()
    model, sentences, corrupted, typos, dictionary = _build_spell_fixture(rng)
    outputs = [correct_sentence(toks, model) for toks in corrupted]

    typo_by_sentence = {sent_idx: (pos, kind, expected) for sent_idx, pos, kind, expected in typos}
    restored = {"swap": 0, "lev1": 0, "concat": 0}
    totals = {"swap": 0, "lev1": 0, "concat": 0}
    collateral = 0
    dict_modified = 0
    for idx, (clean, output) in enumerate(zip(sentences, outputs)):
        if idx not in typo_by_sentence:
            if output != clean:
                collateral += 1
                dict_modified += sum(
                    1 for a, b in zip(clean, output) if a != b and a in dictionary
                )
            continue
        pos, kind, expected = typo_by_sentence[idx]
        totals[kind] += 1
        if output[:pos] != clean[:pos] or output[pos + len(expected):] != clean[pos + len(expected):]:
            collateral += 1
        if output[pos:pos + len(expected)] == expected:
            restored[kind] += 1
    single_rate = (restored["swap"] + restored["lev1"]) / (totals["swap"] + totals["lev1"])
    split_rate = restored["concat"] / totals["concat"]
    elapsed = time.perf_counter() - start
    ok = (
        single_rate >= 0.95
        and split_rate == 1.0
        and dict_modified == 0
        and collateral == 0
        and elapsed < 10.0
    )
    _report(
        "criterion 7: spellchecker restores injected typos",
        ok,
        f"swap/dist-1 {single_rate:.1%}, splits {split_rate:.0%}, "
        f"collateral {collateral}, {elapsed:.2f} s",
    )


def _synth_fixture():
    # every correction's reverse targets appear repeatedly, including one
    # sentence with two occurrences of each find token, so k=2 draws stay
    # applicable and conditioning does not skew the histogram
    pool = [
        ["the", "cat", "goes", "home", "and", "the", "dog", "goes", "out", "now"],
        ["a", "dog", "goes", "to", "the", "park", "now"],
        ["she", "goes", "there", "with", "the", "dog", "and", "the", "cat"],
        ["the", "bird", "goes", "home", "to", "the", "nest", "now"],
    ]
    dist = ErrorDistribution(
        {0: 0.3, 1: 0.5, 2: 0.2},
        {
            CorrectionId("go", "goes", "R:VERB"): 0.4,
            CorrectionId("", "the", "M:DET"): 0.3,
            CorrectionId("now", "", "U:ADV"): 0.3,
        },
    )
    return pool, dist


def test_criterion_8_synthesis_consistency():
    pool, dist = _synth_fixture()
    corrupted, clean, gold = generate_corpus(pool, dist, 1000, seed=131)
    consistent = all(
        apply_edits(sent.tokens, sent.edits) == trg.split()
        for sent, trg in zip(gold, clean)
    )
    _, _, big = generate_corpus(pool, dist, 10_000, seed=137)
    observed = {}
    for sent in big:
        observed[len(sent.edits)] = observed.get(len(sent.edits), 0) + 1
    support = set(observed) | set(dist.per_sentence_hist)
    tv = 0.5 * sum(
        abs(observed.get(k, 0) / len(big) - dist.per_sentence_hist.get(k, 0.0))
        for k in support
    )
    again = generate_corpus(pool, dist, 1000, seed=131)
    reproducible = again == (corrupted, clean, gold) and write_m2(again[2]) == write_m2(gold)
    _report(
        "criterion 8: synthesis is consistent, distribution-true, reproducible",
        consistent and tv <= 0.05 and reproducible,
        f"TV {tv:.4f} over 10000 draws",
    )


def test_criterion_9_partition_algebra():
    rng = random.Random(139)
    ok = True
    for _ in range(500):
        a, b = random_system_pair(rng)
        parts = partition_pair(a, b)
        for idx in range(len(a.corpus)):
            keys_a = {e.key for e in a.corpus[idx].edits}
            keys_b = {e.key for e in b.corpus[idx].edits}
            only_a, only_b, both = (
                {e.key for tag, e in parts[idx] if tag == subset}
                for subset in (Subset.ONLY_A, Subset.ONLY_B, Subset.BOTH)
            )
            if only_a | both != keys_a or only_b | both != keys_b:
                ok = False
            if only_a & both or only_b & both or only_a & only_b:
                ok = False
        if not ok:
            break
    rng_self = random.Random(149)
    self_ok = True
    for _ in range(50):
        a, _ = random_system_pair(rng_self)
        entries = {
            (e.etype, subset): PolicyEntry(1.0, 0, 0)
            for sent in a.corpus
            for e in sent.edits
            for subset in Subset
        }
        policy = SelectionPolicy(beta=0.5, min_samples=0, entries=entries)
        if apply_policy(a, a, policy) != a.corpus:
            self_ok = False
            break
    _report(
        "criterion 9: partition algebra and all-ones self-combination",
        ok and self_ok,
        "500 partitions, 50 self-combinations",
    )


def test_criterion_10_precision_stability_oracle():
    worst = 0.0
    for n in range(1, 61):
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            for delta in (0.05, 0.15, 0.5):
                got = precision_stability(n, p, delta)
                want = binomial_deviation_oracle(n, p, delta)
                worst = max(worst, abs(got - want))
    _report(
        "criterion 10: exact binomial stability matches the rational oracle",
        worst < 1e-12,
        f"max deviation {worst:.2e} over 900 grid points",
    )
