"""Independent output checks and the output_f05 quality metric, per workload.

Each check function takes the workload and the list of per-call results
and returns (problems, quality, extra properties).  `problems` maps the
index of a CLI call to the reasons its output is wrong; a call that
already exited non-zero is not checked again.  Everything here uses the
benchmark's own M2 reader, applier and scorer, never gecmerge code.
"""

from __future__ import annotations

import json
import os
import re

import m2ref

LABEL = re.compile(r"^[MUR]:(PUNCT|ORTH|DET|PREP|SPELL|OTHER)$")
TOL = 1e-9


def _structure(path, tokens_per_sent):
    """Problems with an M2 output that must keep the input's sentences and
    hold one conflict-free edit set per sentence."""
    try:
        sents = m2ref.read_m2(path)
    except (OSError, ValueError) as exc:
        return [f"{os.path.basename(path)}: unreadable ({exc})"], None
    if len(sents) != len(tokens_per_sent):
        return [f"{os.path.basename(path)}: {len(sents)} sentences, expected {len(tokens_per_sent)}"], None
    problems = []
    for i, ((tokens, edits), want) in enumerate(zip(sents, tokens_per_sent)):
        if tokens != list(want):
            problems.append(f"{os.path.basename(path)} sentence {i}: source tokens changed")
        elif any(not 0 <= s <= e <= len(tokens) for s, e, *_ in edits):
            problems.append(f"{os.path.basename(path)} sentence {i}: edit outside the sentence")
        elif m2ref.has_conflict(edits):
            problems.append(f"{os.path.basename(path)} sentence {i}: overlapping kept edits")
        if len(problems) >= 5:
            break
    return problems, sents


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b):
    return abs(a - b) <= TOL


def check_combine(w, results):
    t = w.truth
    out = t["out"]
    dev_gold = m2ref.read_m2(t["files"]["dev/gold"])
    dev_sys = {n: m2ref.read_m2(t["files"][f"dev/{n}"]) for n in "ABC"}
    f_sys = {n: m2ref.f05(s, dev_gold) for n, s in dev_sys.items()}
    problems = {i: [] for i in range(len(results))}
    ok = [r["code"] == 0 and not r["traceback"] for r in results]
    props, quality = {}, 0.0
    path = lambda name: os.path.join(out, name)  # noqa: E731
    if ok[0]:
        report = _json(path("train.json"))["systems"]
        for n in "AB":
            if not _close(report[n]["f"], f_sys[n]):
                problems[0].append(f"train-policy reports F0.5 {report[n]['f']} for {n}, expected {f_sys[n]}")
        entries = _json(path("policy_ab.json"))["entries"]
        if any(e["s"] not in (0.0, 1.0) for e in entries):
            problems[0].append("round-mode policy holds a fractional selection value")
        props["cells_kept"] = sum(1 for e in entries if e["s"] == 1.0)
        props["cells_dropped"] = sum(1 for e in entries if e["s"] == 0.0)
    if ok[1]:
        problems[1] += _structure(path("test_ab.m2"), t["test_tokens"])[0]
    if ok[2]:
        bad, combined = _structure(path("combined.m2"), t["dev_tokens"])
        problems[2] += bad
        if combined is not None:
            quality = m2ref.f05(combined, dev_gold)
            best = max(f_sys.values())
            if quality < best - TOL:
                problems[2].append(f"combined dev F0.5 {quality:.4f} below the best single system {best:.4f}")
            reported = _json(path("combine.json"))["combined"]["f"]
            if not _close(reported, quality):
                problems[2].append(f"combine reports F0.5 {reported}, expected {quality}")
        for step in (1, 2):
            if not os.path.isfile(path(f"comb.step{step}.json")):
                problems[2].append(f"policy file for step {step} missing")
    if ok[3]:
        bad, filtered = _structure(path("C_filtered.m2"), t["dev_tokens"])
        problems[3] += bad
        if filtered is not None:
            f_filt = m2ref.f05(filtered, dev_gold)
            if f_filt < f_sys["C"] - TOL:
                problems[3].append(f"filtered F0.5 {f_filt:.4f} below the unfiltered {f_sys['C']:.4f}")
            report = _json(path("filter.json"))["systems"]
            if not (_close(report["C"]["f"], f_sys["C"]) and _close(report["filtered"]["f"], f_filt)):
                problems[3].append("filter reports scores that differ from the benchmark's scorer")
    if ok[4] and ok[2]:
        combined = m2ref.read_m2(path("combined.m2"))
        tp, fp, fn = m2ref.counts([m2ref.keys(e) for _, e in combined],
                                  [m2ref.keys(e, 0) for _, e in dev_gold])
        overall = _json(path("score.json"))["overall"]
        if (overall["tp"], overall["fp"], overall["fn"]) != (tp, fp, fn) or not _close(overall["f"], quality):
            problems[4].append(f"score reports {overall}, expected tp={tp} fp={fp} fn={fn} f={quality}")
    props["single_system_f05"] = {n: round(f, 4) for n, f in f_sys.items()}
    return problems, quality, props


def check_extract(w, results):
    t = w.truth
    out = t["out"]
    problems = {i: [] for i in range(len(results))}
    ok = [r["code"] == 0 and not r["traceback"] for r in results]
    tp = fp = fn = 0
    names = ("sys1", "sys2")
    for k, name in enumerate(names):
        sysd = t["systems"][name]
        if ok[k]:
            bad, sents = _structure(os.path.join(out, name + ".m2"), t["src"])
            problems[k] += bad
            if sents is not None:
                for i, ((tokens, edits), want) in enumerate(zip(sents, sysd["corrected"])):
                    if m2ref.apply(tokens, edits) != want.split():
                        problems[k].append(f"{name} sentence {i}: extracted edits do not give the corrected line")
                    labels = [et for _, _, et, _, _ in edits if not LABEL.match(et)]
                    if labels:
                        problems[k].append(f"{name} sentence {i}: unexpected labels {labels}")
                    if len(problems[k]) >= 5:
                        break
                c = m2ref.counts([m2ref.keys(e) for _, e in sents],
                                 [m2ref.keys(e) for _, e in sysd["planted"]])
                tp, fp, fn = tp + c[0], fp + c[1], fn + c[2]
                if ok[2 + k]:
                    overall = _json(os.path.join(out, name + "_score.json"))["overall"]
                    if (overall["tp"], overall["fp"], overall["fn"]) != c:
                        problems[2 + k].append(f"score reports {overall}, expected tp/fp/fn {c}")
        if ok[4 + k]:
            with open(os.path.join(out, name + ".txt"), encoding="utf-8") as fh:
                lines = fh.read().split("\n")[:-1]
            if lines != sysd["corrected"]:
                problems[4 + k].append(f"apply output for {name} differs from the corrected text")
    return problems, m2ref.prf(tp, fp, fn)[2], {}


def _changed_span(a, b):
    """(start, end in a, replacement tokens from b) covering every difference."""
    p = 0
    while p < min(len(a), len(b)) and a[p] == b[p]:
        p += 1
    s = 0
    while s < min(len(a), len(b)) - p and a[len(a) - 1 - s] == b[len(b) - 1 - s]:
        s += 1
    return p, len(a) - s, b[p:len(b) - s]


def check_spell(w, results):
    t = w.truth
    out = t["out"]
    problems = {0: [], 1: []}
    counts = {}
    for line in t["corpus"]:
        for word in line.split():
            if len(word) >= 3 and word.isalpha():
                counts[word] = counts.get(word, 0) + 1
    dictionary = t["dictionary"]

    def known(word):
        return counts.get(word, 0) >= 3 or word in dictionary or word.lower() in dictionary

    if results[0]["code"] == 0 and not results[0]["traceback"]:
        want = [f"{k}\t{v}" for k, v in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        with open(os.path.join(out, "model.tsv"), encoding="utf-8") as fh:
            if fh.read().split("\n")[:-1] != want:
                problems[0].append("model counts differ from the benchmark's own count")
    tp = fp = fn = 0
    if results[1]["code"] == 0 and not results[1]["traceback"]:
        with open(os.path.join(out, "corrected.txt"), encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:-1]
        if len(lines) != len(t["lines"]):
            problems[1].append(f"{len(lines)} corrected lines, expected {len(t['lines'])}")
            lines = []
        for i, (src, got, (pos, fix)) in enumerate(zip(t["lines"], lines, t["planted"])):
            a, b = src.split(), got.split()
            s, e, repl = _changed_span(a, b)
            if repl and not all(known(x) for x in repl):
                problems[1].append(f"line {i}: correction {repl} is not a known word")
            hyp = [(s, e, " ".join(repl))] if a != b else []
            ref = [(pos, pos + 1, fix)] if fix else []
            c = m2ref.counts([hyp], [ref])
            tp, fp, fn = tp + c[0], fp + c[1], fn + c[2]
    return problems, m2ref.prf(tp, fp, fn)[2], {}


def check_synth(w, results):
    t = w.truth
    out = t["out"]
    problems = {i: [] for i in range(len(results))}
    if results[0]["code"] == 0 and not results[0]["traceback"]:
        dist = _json(os.path.join(out, "dist.json"))
        hist = {}
        for _, edits in t["train"]:
            hist[len(edits)] = hist.get(len(edits), 0) + 1
        n = len(t["train"])
        got_hist = {int(k): p for k, p in dist["per_sentence_hist"].items()}
        got = {(c["source"], c["replacement"], c["etype"]): c["prob"] for c in dist["corrections"]}
        if set(got_hist) != set(hist) or any(not _close(got_hist[k], c / n) for k, c in hist.items()):
            problems[0].append("measured edit-count histogram differs from the training file")
        if set(got) != set(t["shares"]) or any(not _close(got[k], p) for k, p in t["shares"].items()):
            problems[0].append("measured correction shares differ from the training file")
    pool = {" ".join(s) for s in t["pool"]}
    generated = {}
    for k, prefix in enumerate(t["calls"], start=1):
        r = results[k]
        if r["code"] != 0 or r["traceback"]:
            continue
        try:
            with open(prefix + ".src", encoding="utf-8") as fh:
                src = fh.read().split("\n")[:-1]
            with open(prefix + ".trg", encoding="utf-8") as fh:
                trg = fh.read().split("\n")[:-1]
        except OSError as exc:
            problems[k].append(f"output missing ({exc})")
            continue
        n = int(w.ops[k].argv[w.ops[k].argv.index("-n") + 1])
        bad, gold = _structure(prefix + ".m2", [s.split() for s in src])
        problems[k] += bad
        if len(src) != n or len(trg) != n or gold is None:
            problems[k].append(f"expected {n} sentences in each output file")
            continue
        for i, ((tokens, edits), clean) in enumerate(zip(gold, trg)):
            if m2ref.apply(tokens, edits) != clean.split():
                problems[k].append(f"sentence {i}: gold edits do not restore the clean side")
            if clean not in pool:
                problems[k].append(f"sentence {i}: clean side is not a pool sentence")
            for s, e, etype, repl, _ in edits:
                key = (" ".join(tokens[s:e]), repl, etype)
                generated[key] = generated.get(key, 0) + 1
    # F0.5 of the generated corrections against the planted correction shares,
    # scaled to the same total: precision, recall and F all equal the overlap
    total = sum(generated.values())
    overlap = sum(min(c, t["shares"].get(key, 0.0) * total) for key, c in generated.items())
    return problems, overlap / total if total else 0.0, {}


CHECKS = {"combine": check_combine, "extract": check_extract, "spell": check_spell, "synth": check_synth}
