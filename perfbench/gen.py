"""Seeded input generators for the four workloads.

Each generator writes the program's input files into a work directory
and returns a Workload: the CLI calls of the pipeline, the files the
set-up step loads, the planted truth the checks compare against, and
the input properties a later optimisation might depend on.  The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

from m2ref import conflict, write_m2

CONSONANTS = "bcdfghklmnprstvwy"
VOWELS = "aeiou"
RARE_LETTERS = "jqxz"  # never used by generated words; junk tokens use them
DETS = ("the", "a", "an")
PREPS = ("of", "in", "to", "for", "on", "with", "at", "by", "from")
PUNCT = (",", ";", ":", "!", "?")

SIZES = {
    # name: the input size of one pipeline run
    "combine": {"dev": 1500, "test": 750},
    "extract": {"lines": 1200},
    "spell": {"vocab": 50000, "corpus_lines": 20000, "input_lines": 250},
    "synth": {"pool": 4000, "train": 2000, "calls": 100, "per_call": 5},
}
SMOKE_SIZES = {
    "combine": {"dev": 60, "test": 30},
    "extract": {"lines": 40},
    "spell": {"vocab": 3000, "corpus_lines": 1500, "input_lines": 20},
    "synth": {"pool": 300, "train": 100, "calls": 4, "per_call": 3},
}


@dataclass
class Op:
    """One CLI call: its argv, the sentences it writes (its share of the
    throughput; 0 for calls that write only a model, policy or report),
    and the file its standard output is saved to (if the checks read it)."""

    name: str
    argv: list
    sents: int
    stdout: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    setup: dict
    truth: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


def pseudo_words(rng, n, min_syll=2, max_syll=4):
    """n distinct lowercase consonant-vowel words."""
    words, seen = [], set()
    while len(words) < n:
        w = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS)
            for _ in range(rng.randint(min_syll, max_syll))
        )
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_cum(n):
    """Cumulative Zipf (exponent 1) weights for ranks 1..n."""
    return list(itertools.accumulate(1.0 / r for r in range(1, n + 1)))


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def place(rng, n_tokens, edits, make, tries=20):
    """Add the edit `make(rng)` returns unless it conflicts or touches another."""
    for _ in range(tries):
        cand = make(rng)
        if cand is None:
            continue
        s, e = cand[0], cand[1]
        if s < 0 or e > n_tokens:
            continue
        if all(not conflict((s - 1, e + 1), (x[0] - 1, x[1] + 1)) for x in edits):
            edits.append(cand)
            return cand
    return None


class Text:
    """Zipf-distributed running text with function words and punctuation."""

    def __init__(self, rng, content):
        self.rng = rng
        self.content = content
        self.cum = zipf_cum(len(content))

    def words(self, k):
        return self.rng.choices(self.content, cum_weights=self.cum, k=k)

    def sentence(self, lo, hi):
        rng = self.rng
        n = rng.randint(lo, hi)
        out = []
        for w in self.words(n - 1):
            r = rng.random()
            if r < 0.10:
                out.append(rng.choice(DETS[:2]))
            elif r < 0.17:
                out.append(rng.choice(PREPS))
            elif r < 0.22 and out and out[-1] not in PUNCT:
                out.append(",")
            out.append(w)
            if len(out) >= n - 1:
                break
        out.append(".")
        return out


# --------------------------------------------------------------------------
# combine: three systems, a two-annotator gold dev set and a test split


COMBINE_TYPES = {
    # etype: share of the gold edits
    "R:SPELL": 0.20,
    "M:DET": 0.14,
    "U:DET": 0.08,
    "R:PREP": 0.12,
    "M:PUNCT": 0.12,
    "U:PUNCT": 0.06,
    "R:ORTH": 0.06,
    "R:VERB": 0.12,
    "R:OTHER": 0.10,
}


def _combine_edit(rng, tokens, etype, content, ann):
    n = len(tokens)
    i = rng.randrange(n)
    tok = tokens[i]
    word = tok.isalpha() and tok not in DETS and tok not in PREPS
    if etype == "R:SPELL" and word:
        j = rng.randrange(len(tok))
        fixed = tok[:j] + rng.choice(VOWELS if tok[j] in VOWELS else CONSONANTS) + tok[j + 1:]
        return (i, i + 1, etype, fixed, ann) if fixed != tok else None
    if etype == "M:DET":
        return (i, i, etype, rng.choice(DETS), ann)
    if etype == "U:DET" and tok in DETS:
        return (i, i + 1, etype, "", ann)
    if etype == "R:PREP" and tok in PREPS:
        return (i, i + 1, etype, rng.choice([p for p in PREPS if p != tok]), ann)
    if etype == "M:PUNCT":
        return (i, i, etype, ",", ann)
    if etype == "U:PUNCT" and tok == ",":
        return (i, i + 1, etype, "", ann)
    if etype == "R:ORTH" and word:
        return (i, i + 1, etype, tok.capitalize(), ann)
    if etype == "R:VERB" and word:
        return (i, i + 1, etype, tok + rng.choice(("s", "d", "ng")), ann)
    if etype == "R:OTHER" and i + 1 < n:
        repl = " ".join(rng.choice(content) for _ in range(rng.randint(1, 2)))
        return (i, i + 2, etype, repl, ann)
    return None


def _combine_sentences(rng, text, content, n, types, weights):
    sents = []
    for _ in range(n):
        tokens = text.sentence(15, 30)
        k = rng.choices((0, 1, 2, 3), (0.22, 0.36, 0.26, 0.16))[0]
        gold = []
        for _ in range(k):
            et = rng.choices(types, weights)[0]
            place(rng, len(tokens), gold, lambda r: _combine_edit(r, tokens, et, content, 0))
        alt = []
        if gold and rng.random() < 0.38:  # about 30% of all sentences
            # annotator 1: the same corrections, one of them done differently
            swap = rng.randrange(len(gold))
            for j, g in enumerate(gold):
                if j != swap:
                    alt.append(g[:4] + (1,))
            et = rng.choices(types, weights)[0]
            place(rng, len(tokens), alt, lambda r: _combine_edit(r, tokens, et, content, 1))
        sents.append((tokens, gold, alt))
    return sents


def _system(rng, sents, profile, types, content, shared_fps):
    """One system's edits: each gold edit kept with its type's recall, plus
    false positives drawn partly from a pool all systems share."""
    out = []
    for idx, (tokens, gold, alt) in enumerate(sents):
        edits = []
        for g in gold:
            recall, _ = profile[g[2]]
            if rng.random() < recall:
                place(rng, len(tokens), edits, lambda r: g, tries=1)
        for a in alt:
            if rng.random() < 0.15:
                place(rng, len(tokens), edits, lambda r: a[:4] + (0,), tries=1)
        for et in types:
            _, fp_rate = profile[et]
            if rng.random() < fp_rate:
                pool = shared_fps[idx].get(et)
                if pool and rng.random() < 0.5:
                    cand = rng.choice(pool)
                    place(rng, len(tokens), edits, lambda r: cand, tries=1)
                else:
                    place(rng, len(tokens), edits, lambda r: _combine_edit(r, tokens, et, content, 0))
        out.append((tokens, edits))
    return out


def _profiles(rng, types, names):
    """Per-system, per-type (recall, false-positive rate), drawn from the seed
    around a fixed plan.  The plan deals a ladder of levels out to the types
    and rotates it by a third for each further system, so every type has a
    strong, a middling and a weak system and every system strong and weak
    types: the optimiser keeps some cells and drops others.  The plan is the
    same for every seed, because dealing it anew made the combined F0.5
    swing by about 10% between seeds."""
    k = len(types)
    plan = random.Random("combine-plan")
    recall = [0.25 + 0.45 * i / (k - 1) for i in range(k)]
    fp_rate = [0.03 + 0.27 * i / (k - 1) for i in range(k)]
    plan.shuffle(recall)
    plan.shuffle(fp_rate)
    step = k // len(names)
    return {
        name: {
            t: (recall[(i + j * step) % k] + rng.uniform(-0.02, 0.02),
                fp_rate[(i + j * step) % k] * rng.uniform(0.9, 1.1))
            for i, t in enumerate(types)
        }
        for j, name in enumerate(names)
    }


def gen_combine(seed, d, sizes):
    rng = random.Random(f"combine:{seed}")
    content = pseudo_words(rng, 3000)
    text = Text(rng, content)
    types = list(COMBINE_TYPES)
    weights = [COMBINE_TYPES[t] for t in types]
    profiles = _profiles(rng, types, "ABC")
    files = {}
    data = {}
    for split in ("dev", "test"):
        n = sizes[split]
        os.makedirs(os.path.join(d, split), exist_ok=True)
        sents = _combine_sentences(rng, text, content, n, types, weights)
        shared = []
        for tokens, _, _ in sents:
            per_type = {}
            for et in types:
                per_type[et] = [
                    e for e in (_combine_edit(rng, tokens, et, content, 0) for _ in range(2)) if e
                ]
            shared.append(per_type)
        gold_path = os.path.join(d, split, "gold.m2")
        write_m2(gold_path, [(t, g + a) for t, g, a in sents])
        files[f"{split}/gold"] = gold_path
        systems = {}
        for name in "ABC":
            sys_sents = _system(rng, sents, profiles[name], types, content, shared)
            path = os.path.join(d, split, f"{name}.m2")
            write_m2(path, sys_sents)
            files[f"{split}/{name}"] = path
            systems[name] = sys_sents
        data[split] = (sents, systems)
    out = os.path.join(d, "out")
    os.makedirs(out, exist_ok=True)
    f = lambda name: os.path.join(out, name)  # noqa: E731
    n_dev, n_test = sizes["dev"], sizes["test"]
    ops = [
        Op("train-policy", ["train-policy", "--system-a", files["dev/A"], "--system-b", files["dev/B"],
                            "--gold", files["dev/gold"], "-o", f("policy_ab.json"), "--json"],
           0, f("train.json")),
        Op("apply-policy", ["apply-policy", "--system-a", files["test/A"], "--system-b", files["test/B"],
                            "--policy", f("policy_ab.json"), "-o", f("test_ab.m2")], n_test),
        Op("combine", ["combine", files["dev/A"], files["dev/B"], files["dev/C"], "--gold",
                       files["dev/gold"], "-o", f("combined.m2"), "--policies", f("comb"), "--json"],
           n_dev, f("combine.json")),
        Op("filter", ["filter", "--system", files["dev/C"], "--gold", files["dev/gold"],
                      "-o", f("C_filtered.m2"), "--json"], n_dev, f("filter.json")),
        Op("score", ["score", "--hyp", f("combined.m2"), "--ref", files["dev/gold"], "--json"],
           0, f("score.json")),
    ]
    dev_sents, dev_sys = data["dev"]
    test_sents, _ = data["test"]
    truth = {
        "dev_tokens": [t for t, _, _ in dev_sents],
        "test_tokens": [t for t, _, _ in test_sents],
        "out": out,
        "files": files,
    }
    keys_a = [{(s, e, r) for s, e, _, r, _ in ed} for _, ed in dev_sys["A"]]
    keys_b = [{(s, e, r) for s, e, _, r, _ in ed} for _, ed in dev_sys["B"]]
    both = sum(len(x & y) for x, y in zip(keys_a, keys_b))
    union = sum(len(x | y) for x, y in zip(keys_a, keys_b))
    props = {
        "dev_sentences": n_dev,
        "test_sentences": n_test,
        "gold_edits_per_sentence": sum(len(g) for _, g, _ in dev_sents) / n_dev,
        "alt_annotator_share": sum(1 for _, _, a in dev_sents if a) / n_dev,
        "agreement_share_ab": both / union if union else 0.0,
    }
    setup = {"kind": "combine", "m2": [files[k] for k in sorted(files)]}
    return Workload("combine", ops, setup, truth, props)


# --------------------------------------------------------------------------
# extract: source lines plus two systems' corrected text


EXTRACT_CATEGORIES = ("PUNCT", "ORTH", "DET", "PREP", "SPELL", "OTHER")


def _typo(rng, word):
    j = rng.randrange(len(word) - 1)
    if rng.random() < 0.5:
        return word[:j] + word[j + 1] + word[j] + word[j + 2:]
    return word[:j] + rng.choice(CONSONANTS) + word[j + 1:]


def _extract_edit(rng, src, clean, content, cat):
    """A planted correction on the source tokens, or None if this spot does not fit."""
    n = len(src)
    i = rng.randrange(n)
    tok = src[i]
    word = tok.isalpha() and tok.islower() and tok not in DETS and tok not in PREPS
    if cat == "PUNCT":
        r = rng.random()
        if r < 0.4:
            return (i, i, "M:PUNCT", rng.choice(PUNCT[:2]), 0)
        if tok in PUNCT:
            return (i, i + 1, "U:PUNCT", "", 0) if r < 0.7 else (
                i, i + 1, "R:PUNCT", rng.choice([p for p in PUNCT if p != tok]), 0)
        return None
    if cat == "ORTH" and word:
        return (i, i + 1, "R:ORTH", tok.capitalize(), 0)
    if cat == "DET":
        r = rng.random()
        if r < 0.4 and word:
            return (i, i, "M:DET", rng.choice(DETS), 0)
        if tok in DETS:
            return (i, i + 1, "U:DET", "", 0) if r < 0.7 else (
                i, i + 1, "R:DET", rng.choice([x for x in DETS if x != tok]), 0)
        return None
    if cat == "PREP" and tok in PREPS:
        return (i, i + 1, "R:PREP", rng.choice([p for p in PREPS if p != tok]), 0)
    if cat == "SPELL" and src[i] != clean[i]:
        return (i, i + 1, "R:SPELL", clean[i], 0)
    if cat == "OTHER" and word and i + 1 < n and src[i + 1].isalpha():
        repl = " ".join(rng.choice(content) for _ in range(rng.randint(1, 3)))
        return (i, i + 2, "R:OTHER", repl, 0)
    return None


def gen_extract(seed, d, sizes):
    rng = random.Random(f"extract:{seed}")
    content = pseudo_words(rng, 4000)
    text = Text(rng, content)
    os.makedirs(d, exist_ok=True)
    n = sizes["lines"]
    unchanged_share = 0.35
    src_lines, clean_lines = [], []
    for _ in range(n):
        clean = text.sentence(20, 40)
        src = [
            _typo(rng, t) if t.isalpha() and len(t) > 3 and t not in DETS and rng.random() < 0.04 else t
            for t in clean
        ]
        src_lines.append(src)
        clean_lines.append(clean)
    paths = {"orig": os.path.join(d, "orig.txt"), "dict": os.path.join(d, "dict.txt")}
    write_lines(paths["orig"], (" ".join(s) for s in src_lines))
    write_lines(paths["dict"], sorted(set(content) | set(DETS) | set(PREPS)))
    systems = {}
    for name in ("sys1", "sys2"):
        planted, corrected, unchanged = [], [], 0
        for src, clean in zip(src_lines, clean_lines):
            edits = []
            if rng.random() >= unchanged_share:
                for _ in range(rng.randint(1, 3)):
                    cat = rng.choice(EXTRACT_CATEGORIES)
                    place(rng, len(src), edits, lambda r: _extract_edit(r, src, clean, content, cat))
            if not edits:
                unchanged += 1
            planted.append((src, edits))
            out = list(src)
            for s, e, _, repl, _ in sorted(edits, reverse=True):
                out[s:e] = repl.split()
            corrected.append(" ".join(out))
        paths[name] = os.path.join(d, f"{name}.txt")
        paths[name + "_truth"] = os.path.join(d, f"{name}_truth.m2")
        write_lines(paths[name], corrected)
        write_m2(paths[name + "_truth"], planted)
        systems[name] = {"planted": planted, "corrected": corrected, "unchanged": unchanged}
    out = os.path.join(d, "out")
    os.makedirs(out, exist_ok=True)
    f = lambda name: os.path.join(out, name)  # noqa: E731
    ops = []
    for name in ("sys1", "sys2"):
        ops.append(Op("extract", ["extract", "--orig", paths["orig"], "--corrected", paths[name],
                                  "--dict", paths["dict"], "-o", f(name + ".m2")], n))
    for name in ("sys1", "sys2"):
        ops.append(Op("score", ["score", "--hyp", f(name + ".m2"), "--ref", paths[name + "_truth"],
                                "--json"], 0, f(name + "_score.json")))
    for name in ("sys1", "sys2"):
        ops.append(Op("apply", ["apply", "--m2", f(name + ".m2"), "-o", f(name + ".txt")], n))
    cells = [
        len(src) * len(c.split())
        for sysd in systems.values()
        for (src, _), c in zip(sysd["planted"], sysd["corrected"])
    ]
    props = {
        "lines": n,
        "unchanged_line_share": sum(s["unchanged"] for s in systems.values()) / (2 * n),
        "mean_dp_cells_per_line": sum(cells) / len(cells),
        "planted_edits_per_line": sum(len(e) for s in systems.values() for _, e in s["planted"]) / (2 * n),
    }
    truth = {"src": src_lines, "systems": systems, "out": out}
    setup = {"kind": "extract", "lines": [paths["orig"], paths["sys1"], paths["sys2"]], "dict": paths["dict"]}
    return Workload("extract", ops, setup, truth, props)


# --------------------------------------------------------------------------
# spell: a large pseudo-word vocabulary, a Zipf corpus and one error per line

SPELL_KINDS = {"swap": 0.2, "deletion": 0.2, "insertion": 0.2, "join": 0.2, "junk": 0.2}
KNOWN_MIN, CANDIDATE_MIN = 3, 20  # the CLI defaults the pipeline runs with


def _spell_error(rng, kind, original, partner):
    if kind == "swap":
        i, j = sorted(rng.sample(range(len(original)), 2))
        if original[i] == original[j]:
            return None
        w = list(original)
        w[i], w[j] = w[j], w[i]
        return "".join(w)
    if kind == "deletion":
        i = rng.randrange(len(original))
        return original[:i] + original[i + 1:]
    if kind == "insertion":
        i = rng.randrange(len(original) + 1)
        return original[:i] + rng.choice(CONSONANTS + VOWELS) + original[i:]
    if kind == "join":
        return original + partner
    letters = [rng.choice(CONSONANTS + VOWELS) for _ in range(rng.randint(5, 9))]
    for i in rng.sample(range(len(letters)), 2):
        letters[i] = rng.choice(RARE_LETTERS)
    return "".join(letters)


def gen_spell(seed, d, sizes):
    rng = random.Random(f"spell:{seed}")
    vocab = pseudo_words(rng, sizes["vocab"])
    text = Text(rng, vocab)
    os.makedirs(d, exist_ok=True)
    corpus = [" ".join(text.words(rng.randint(8, 16))) for _ in range(sizes["corpus_lines"])]
    counts = {}
    for line in corpus:
        for w in line.split():
            counts[w] = counts.get(w, 0) + 1
    dictionary = set(rng.sample(vocab, int(0.6 * len(vocab))))
    vocab_set = set(vocab)
    known = [w for w in vocab if counts.get(w, 0) >= KNOWN_MIN or w in dictionary]
    known_cum = zipf_cum(len(known))
    frequent = [w for w in vocab if counts.get(w, 0) > CANDIDATE_MIN]
    dict_only = sorted(w for w in dictionary if counts.get(w, 0) <= CANDIDATE_MIN)
    # exact shares, so that the cost mix of a run does not depend on the seed
    n = sizes["input_lines"]
    plan = [
        (kind, {"join": "3", "junk": "none"}.get(kind) or "12"[i % 2])
        for kind, share in SPELL_KINDS.items()
        for i in range(round(share * n))
    ]
    rng.shuffle(plan)
    lines, planted, stages = [], [], []
    for kind, stage in plan:
        while True:
            original = rng.choice(frequent if stage == "1" else dict_only)
            partner = rng.choices(known, cum_weights=known_cum)[0]
            bad = _spell_error(rng, kind, original, partner)
            if bad and len(bad) >= 3 and bad not in vocab_set and bad not in dictionary:
                break
        tokens = rng.choices(known, cum_weights=known_cum, k=20)
        pos = rng.randrange(len(tokens))
        tokens[pos] = bad
        lines.append(" ".join(tokens))
        fix = {"join": f"{original} {partner}", "junk": None}.get(kind, original)
        planted.append((pos, fix))
        stages.append(stage)
    paths = {k: os.path.join(d, v) for k, v in
             (("corpus", "corpus.txt"), ("dict", "dict.txt"), ("input", "input.txt"))}
    write_lines(paths["corpus"], corpus)
    write_lines(paths["dict"], sorted(dictionary))
    write_lines(paths["input"], lines)
    out = os.path.join(d, "out")
    os.makedirs(out, exist_ok=True)
    model = os.path.join(out, "model.tsv")
    ops = [
        Op("spell.build-model", ["spell", "build-model", "--corpus", paths["corpus"], "--dict", paths["dict"],
                                 "-o", model], 0),
        Op("spell.correct", ["spell", "correct", "--model", model, "--dict", paths["dict"],
                             "--input", paths["input"], "--output", os.path.join(out, "corrected.txt")],
           len(lines)),
    ]
    n = len(lines)
    props = {
        "input_lines": n,
        "vocabulary": len(vocab),
        "dictionary_words": len(dictionary),
        "frequent_words": len(frequent),
        "stage1_share": stages.count("1") / n,
        "stage2_share": stages.count("2") / n,
        "stage3_share": stages.count("3") / n,
        "no_suggestion_share": stages.count("none") / n,
    }
    truth = {"corpus": corpus, "dictionary": dictionary, "lines": lines, "planted": planted, "out": out}
    setup = {"kind": "spell", "model": model, "dict": paths["dict"]}
    return Workload("spell", ops, setup, truth, props)


# --------------------------------------------------------------------------
# synth: a clean pool and an annotated training file

SYNTH_HIST = {0: 0.30, 1: 0.35, 2: 0.22, 3: 0.13}
INSERTED = {"the", "a", ",", "of", "to"}  # what the inventory's M: corrections insert


def _synth_inventory(frequent):
    """(source, replacement, etype, weight): about a fifth of the weight is
    insertion-type (M:), under a tenth deletion-type (U:), the rest replacements,
    roughly the shares of learner corpora, where a missing comma is the most
    frequent single correction."""
    inv = [
        ("", "the", "M:DET", 8), ("", "a", "M:DET", 4), ("", ",", "M:PUNCT", 10),
        ("", "of", "M:PREP", 3), ("", "to", "M:PREP", 3),
        ("the", "", "U:DET", 4), ("a", "", "U:DET", 2), (",", "", "U:PUNCT", 3), ("of", "", "U:PREP", 2),
        ("in", "on", "R:PREP", 3), ("on", "in", "R:PREP", 3), ("at", "in", "R:PREP", 2),
        ("to", "for", "R:PREP", 2), ("for", "to", "R:PREP", 2),
        ("a", "the", "R:DET", 3), ("the", "a", "R:DET", 3), ("an", "a", "R:DET", 1),
    ]
    for i, w in enumerate(frequent):
        inv.append((w + "s", w, "R:NOUN:NUM", 2 if i < 10 else 1))
        inv.append((w[1] + w[0] + w[2:], w, "R:SPELL", 2 if i < 10 else 1))
    return inv


def gen_synth(seed, d, sizes):
    rng = random.Random(f"synth:{seed}")
    content = pseudo_words(rng, 2000)
    text = Text(rng, content)
    os.makedirs(d, exist_ok=True)

    def clean_sentence():
        # Text puts at most one function token before each content word; a
        # second clause opens with its content word, so no two of the tokens
        # that insertion-type corrections add (the, a, ",", of, to) are
        # adjacent.  Adjacent ones trigger the adjacent-insertion defect
        # (see NOTES.md), which the synth report shows by its own probe.
        tokens = text.sentence(6, 12)[:-1]
        if rng.random() < 0.5:  # a second clause
            clause = text.sentence(5, 10)[:-1]
            while clause[0] in DETS or clause[0] in PREPS or clause[0] in PUNCT:
                clause = clause[1:]
            tokens += [","] + clause
        return tokens + ["."]

    pool = [clean_sentence() for _ in range(sizes["pool"])]
    inventory = _synth_inventory(content[:30])
    weights = [w for *_, w in inventory]
    train = []
    for _ in range(sizes["train"]):
        clean = clean_sentence()
        k = rng.choices(list(SYNTH_HIST), list(SYNTH_HIST.values()))[0]
        picks = rng.choices(inventory, weights, k=k)
        # clean tokens interleaved with error spans; distinct cuts keep at
        # least one clean token between two errors, so no two edits conflict
        cuts = sorted(rng.sample(range(len(clean) + 1), k))
        tokens, edits, prev = [], [], 0
        for cut, (source, repl, etype, _) in zip(cuts, picks):
            tokens += clean[prev:cut]
            prev = cut
            start = len(tokens)
            tokens += source.split()
            edits.append((start, len(tokens), etype, repl, 0))
        tokens += clean[prev:]
        train.append((tokens, edits))
    paths = {"pool": os.path.join(d, "pool.txt"), "train": os.path.join(d, "train.m2")}
    write_lines(paths["pool"], (" ".join(s) for s in pool))
    write_m2(paths["train"], train)
    out = os.path.join(d, "out")
    os.makedirs(out, exist_ok=True)
    dist = os.path.join(out, "dist.json")
    ops = [Op("synth.measure", ["synth", "measure", "--train", paths["train"], "-o", dist], 0)]
    calls = []
    for i in range(sizes["calls"]):
        prefix = os.path.join(out, f"gen{i:03d}")
        call_seed = seed * 1000 + i
        ops.append(Op("synth.generate", ["synth", "generate", "--pool", paths["pool"], "--dist", dist,
                                         "-n", str(sizes["per_call"]), "--seed", str(call_seed),
                                         "-o", prefix], sizes["per_call"]))
        calls.append(prefix)
    measured = {}
    for tokens, edits in train:
        for s, e, etype, repl, _ in edits:
            key = (" ".join(tokens[s:e]), repl, etype)
            measured[key] = measured.get(key, 0) + 1
    total = sum(measured.values())
    shares = {k: c / total for k, c in measured.items()}
    by_token = {}
    for i, sent in enumerate(pool):
        for tok in set(sent):
            by_token.setdefault(tok, set()).add(i)
    cand_sizes = 0.0
    for (source, repl, _), p in shares.items():
        need = [by_token.get(t, set()) for t in repl.split()]
        cand_sizes += p * (len(set.intersection(*need)) if need else len(pool))
    props = {
        "pool_sentences": len(pool),
        "train_sentences": len(train),
        "generated_requested": sizes["calls"] * sizes["per_call"],
        "insertion_correction_share": sum(p for (s, _, _), p in shares.items() if not s),
        "mean_candidates_single_draw": cand_sizes,
        "pool_adjacent_insertion_targets": sum(
            1 for s in pool for a, b in zip(s, s[1:]) if a in INSERTED and b in INSERTED
        ),
    }
    truth = {"pool": pool, "train": train, "shares": shares, "calls": calls, "out": out}
    setup = {"kind": "synth", "dist": dist, "pool": paths["pool"]}
    return Workload("synth", ops, setup, truth, props)


GENERATORS = {"combine": gen_combine, "extract": gen_extract, "spell": gen_spell, "synth": gen_synth}
