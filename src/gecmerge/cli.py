"""Command-line interface exposing the full pipeline as subcommands.

Exit codes are uniform across commands: 0 success, 1 I/O failure,
2 validation failure (malformed files, misaligned corpora, bad values).
All randomness is seeded through --seed, so every command is
deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .align import extract_edits
from .combine import (
    SystemOutput,
    apply_policy,
    combine_iterative,
    filter_system,
    load_policy,
    save_policy,
    train_policy,
)
from .core import AnnotatedSentence, M2Corpus, OverlapError, apply_edits
from .fileio import atomic_write
from .m2 import M2ParseError, dump_m2, load_m2
from .rng import SplitMix64
from .score import CorpusAlignmentError, Score, match_edits
from .spellcheck import (
    build_model,
    correct_sentence,
    load_dictionary,
    load_model,
    save_model,
)
from .synth import (
    GenerationExhaustedError,
    generate_corpus,
    load_distribution,
    measure_distribution,
    save_distribution,
)


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").rstrip("\r") for line in fh]


def _write_lines(path: str | None, lines: Iterable[str]) -> None:
    if path is None or path == "-":
        for line in lines:
            print(line)
        return
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def _load_system(path: str) -> SystemOutput:
    return SystemOutput(Path(path).stem, load_m2(path))


def _fmt_score(score: Score) -> str:
    return f"P={score.precision:.4f} R={score.recall:.4f} F{score.beta:g}={score.f_beta:.4f}"


def _score_json(score: Score, tp: int, fp: int, fn: int) -> dict:
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": score.precision,
        "recall": score.recall,
        "f": score.f_beta,
    }


def _subset_corpus(corpus: M2Corpus, indices: Sequence[int]) -> M2Corpus:
    return M2Corpus(tuple(corpus[i] for i in indices))


def _holdout_split(n: int, holdout: float, seed: int) -> tuple[list[int], list[int]]:
    """Seeded random sentence split: (train indices, report indices)."""
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    n_eval = max(1, min(n - 1, round(holdout * n)))
    return sorted(order[n_eval:]), sorted(order[:n_eval])


def _report_rows(hyp: M2Corpus, gold: M2Corpus, beta: float, annotator: int):
    stats = match_edits(hyp, gold, annotator)
    tp = sum(s.tp for s in stats.values())
    fp = sum(s.fp for s in stats.values())
    fn = sum(s.fn for s in stats.values())
    overall = Score.from_counts(tp, fp, fn, beta)
    rows = sorted(
        stats.items(), key=lambda kv: (-(kv[1].tp + kv[1].fn), kv[0])
    )
    return overall, (tp, fp, fn), rows


def _report(args: argparse.Namespace, gold: M2Corpus, systems: dict[str, M2Corpus], **extra) -> None:
    """Print each system's score against gold: one line each, or --json."""
    scores = {
        label: _report_rows(corpus, gold, args.beta, args.annotator)[:2]
        for label, corpus in systems.items()
    }
    if args.json:
        systems_json = {label: _score_json(sc, *counts) for label, (sc, counts) in scores.items()}
        print(json.dumps({"beta": args.beta, **extra, "systems": systems_json}, indent=2))
    else:
        for label, (sc, _) in scores.items():
            print(f"{label:<20} {_fmt_score(sc)}")


def cmd_extract(args: argparse.Namespace) -> int:
    orig_lines = _read_lines(args.orig)
    corrected_lines = _read_lines(args.corrected)
    if len(orig_lines) != len(corrected_lines):
        raise ValueError(
            f"line counts differ: {args.orig} has {len(orig_lines)}, "
            f"{args.corrected} has {len(corrected_lines)}"
        )
    dictionary = load_dictionary(args.dict) if args.dict else frozenset()

    sentences = []
    for orig, corrected in zip(orig_lines, corrected_lines):
        source = tuple(orig.split())
        sentences.append(
            AnnotatedSentence(source, extract_edits(source, tuple(corrected.split()), dictionary))
        )
    dump_m2(args.out, M2Corpus(tuple(sentences)))
    return 0


def cmd_train_policy(args: argparse.Namespace) -> int:
    a = _load_system(args.system_a)
    b = _load_system(args.system_b)
    gold = load_m2(args.gold)
    if args.holdout is not None:
        if not 0.0 < args.holdout < 1.0:
            raise ValueError("--holdout must be in (0, 1)")
        train_idx, report_idx = _holdout_split(len(gold), args.holdout, args.seed)
    else:
        train_idx = report_idx = list(range(len(gold)))
    train_a = SystemOutput(a.name, _subset_corpus(a.corpus, train_idx))
    train_b = SystemOutput(b.name, _subset_corpus(b.corpus, train_idx))
    policy = train_policy(
        train_a,
        train_b,
        _subset_corpus(gold, train_idx),
        beta=args.beta,
        annotator=args.annotator,
        min_samples=args.min_samples,
        rounding=args.rounding,
        dev_name=Path(args.gold).stem,
    )
    save_policy(args.out, policy)
    report_a = SystemOutput(a.name, _subset_corpus(a.corpus, report_idx))
    report_b = SystemOutput(b.name, _subset_corpus(b.corpus, report_idx))
    combined = apply_policy(report_a, report_b, policy, seed=args.seed)
    systems = {a.name: report_a.corpus, b.name: report_b.corpus, "combined": combined}
    _report(args, _subset_corpus(gold, report_idx), systems, holdout=args.holdout)
    return 0


def cmd_apply_policy(args: argparse.Namespace) -> int:
    a = _load_system(args.system_a)
    b = _load_system(args.system_b)
    policy = load_policy(args.policy)
    dump_m2(args.out, apply_policy(a, b, policy, seed=args.seed))
    return 0


def cmd_combine(args: argparse.Namespace) -> int:
    systems = [_load_system(path) for path in args.systems]
    gold = load_m2(args.gold)
    combined, policies = combine_iterative(
        systems,
        gold,
        beta=args.beta,
        annotator=args.annotator,
        min_samples=args.min_samples,
        rounding=args.rounding,
        seed=args.seed,
        dev_name=Path(args.gold).stem,
    )
    dump_m2(args.out, combined)
    if args.policies:
        for step, policy in enumerate(policies, start=1):
            save_policy(f"{args.policies}.step{step}.json", policy)
    overall, counts, _ = _report_rows(combined, gold, args.beta, args.annotator)
    if args.json:
        print(json.dumps({"beta": args.beta, "combined": _score_json(overall, *counts)}, indent=2))
    else:
        print(f"{'combined':<20} {_fmt_score(overall)}")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    gold = load_m2(args.gold)
    policy, filtered = filter_system(
        system,
        gold,
        beta=args.beta,
        annotator=args.annotator,
        min_samples=args.min_samples,
        rounding=args.rounding,
        dev_name=Path(args.gold).stem,
    )
    dump_m2(args.out, filtered)
    if args.policy:
        save_policy(args.policy, policy)
    _report(args, gold, {system.name: system.corpus, "filtered": filtered})
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    hyp = load_m2(args.hyp)
    ref = load_m2(args.ref)
    overall, (tp, fp, fn), rows = _report_rows(hyp, ref, args.beta, args.annotator)
    if args.json:
        payload = {
            "beta": args.beta,
            "overall": _score_json(overall, tp, fp, fn),
            "types": [
                dict(etype=etype, **_score_json(
                    Score.from_counts(st.tp, st.fp, st.fn, args.beta), st.tp, st.fp, st.fn
                ))
                for etype, st in rows
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    header = f"{'type':<16}{'TP':>6}{'FP':>6}{'FN':>6}{'P':>9}{'R':>9}{'F' + format(args.beta, 'g'):>9}"
    print(header)
    for etype, st in rows:
        sc = Score.from_counts(st.tp, st.fp, st.fn, args.beta)
        print(
            f"{etype:<16}{st.tp:>6}{st.fp:>6}{st.fn:>6}"
            f"{sc.precision:>9.4f}{sc.recall:>9.4f}{sc.f_beta:>9.4f}"
        )
    print(
        f"{'ALL':<16}{tp:>6}{fp:>6}{fn:>6}"
        f"{overall.precision:>9.4f}{overall.recall:>9.4f}{overall.f_beta:>9.4f}"
    )
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    corpus = load_m2(args.m2)
    lines = [
        " ".join(apply_edits(sent.tokens, sent.edits_for(args.annotator)))
        for sent in corpus
    ]
    _write_lines(args.out, lines)
    return 0


def cmd_spell_build_model(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(args.dict)

    def lines():
        for path in args.corpus:
            with open(path, "r", encoding="utf-8") as fh:
                yield from fh

    model = build_model(
        lines(), dictionary, args.min_known, args.min_candidate
    )
    save_model(args.out, model)
    return 0


def cmd_spell_correct(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(args.dict)
    model = load_model(args.model, dictionary, args.min_known, args.min_candidate)
    if args.input and args.input != "-":
        lines = _read_lines(args.input)
    else:
        lines = [line.rstrip("\n").rstrip("\r") for line in sys.stdin]
    _write_lines(args.output, [" ".join(correct_sentence(line.split(), model)) for line in lines])
    return 0


def cmd_synth_measure(args: argparse.Namespace) -> int:
    train = load_m2(args.train)
    save_distribution(args.out, measure_distribution(train, args.annotator))
    return 0


def cmd_synth_generate(args: argparse.Namespace) -> int:
    with open(args.pool, "r", encoding="utf-8") as fh:
        # tuples, which the pool index keeps without copying
        pool = [tuple(toks) for line in fh if (toks := line.split())]
    dist = load_distribution(args.dist)
    corrupted, clean, gold = generate_corpus(
        pool, dist, args.n, seed=args.seed, max_attempts=args.max_attempts
    )
    _write_lines(args.out + ".src", corrupted)
    _write_lines(args.out + ".trg", clean)
    dump_m2(args.out + ".m2", gold)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, *, holdout: bool = False) -> None:
    parser.add_argument("--beta", type=float, default=0.5, help="F-beta weighting")
    parser.add_argument("--annotator", type=int, default=0, help="reference annotator id")
    parser.add_argument(
        "--min-samples",
        type=int,
        default=2,
        help="distrust cells with fewer hypothesis edits (0 disables)",
    )
    parser.add_argument(
        "--rounding",
        choices=["round", "sample"],
        default="round",
        help="snap selection values to 0/1 or keep fractions for sampling",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    if holdout:
        parser.add_argument(
            "--holdout",
            type=float,
            default=None,
            help="fraction of sentences held out for reporting; trains on the rest",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecmerge",
        description="Combine, score, filter, and synthesize grammatical-error corrections.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "extract",
        help="extract an M2 file from parallel original/corrected text",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--orig", required=True, help="tokenized source sentences, one per line")
    p.add_argument("--corrected", required=True, help="tokenized corrected sentences, one per line")
    p.add_argument("-o", "--out", required=True, help="output M2 path")
    p.add_argument("--dict", default=None, help="dictionary word list for spelling labels")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "train-policy",
        help="learn a selection policy for a system pair on a dev set",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--system-a", required=True, help="system A M2 file")
    p.add_argument("--system-b", required=True, help="system B M2 file")
    p.add_argument("--gold", required=True, help="reference M2 file")
    p.add_argument("-o", "--out", required=True, help="output policy JSON path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    _add_config_flags(p, holdout=True)
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser(
        "apply-policy",
        help="apply a trained policy to a system pair on unseen data",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--system-a", required=True, help="system A M2 file")
    p.add_argument("--system-b", required=True, help="system B M2 file")
    p.add_argument("--policy", required=True, help="policy JSON path")
    p.add_argument("-o", "--out", required=True, help="output M2 path")
    p.add_argument("--seed", type=int, default=0, help="seed for sampling-mode policies")
    p.set_defaults(func=cmd_apply_policy)

    p = sub.add_parser(
        "combine",
        help="iteratively combine two or more systems on a dev set",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("systems", nargs="+", help="system M2 files, combined left to right")
    p.add_argument("--gold", required=True, help="reference M2 file")
    p.add_argument("-o", "--out", required=True, help="output combined M2 path")
    p.add_argument("--policies", default=None, help="prefix for per-step policy files")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    _add_config_flags(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser(
        "filter",
        help="drop a single system's weak error types",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--system", required=True, help="system M2 file")
    p.add_argument("--gold", required=True, help="reference M2 file")
    p.add_argument("-o", "--out", required=True, help="output filtered M2 path")
    p.add_argument("--policy", default=None, help="optional policy JSON output path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    _add_config_flags(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser(
        "score",
        help="score a hypothesis M2 file against a reference",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--hyp", required=True, help="hypothesis M2 file")
    p.add_argument("--ref", required=True, help="reference M2 file")
    p.add_argument("--beta", type=float, default=0.5, help="F-beta weighting")
    p.add_argument("--annotator", type=int, default=0, help="reference annotator id")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "apply",
        help="apply an M2 file's edits, emitting corrected text",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--m2", required=True, help="M2 file to apply")
    p.add_argument("-o", "--out", default=None, help="output text path (default stdout)")
    p.add_argument("--annotator", type=int, default=0, help="annotator whose edits to apply")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("spell", help="frequency-dictionary spellchecker")
    spell_sub = p.add_subparsers(dest="spell_command", required=True)

    q = spell_sub.add_parser(
        "build-model",
        help="count words from corpora into a model TSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    q.add_argument("--corpus", action="append", required=True, help="corpus text file (repeatable)")
    q.add_argument("--dict", required=True, help="dictionary word list")
    q.add_argument("-o", "--out", required=True, help="output model TSV path")
    q.add_argument("--min-known", type=int, default=3, help="count at which a word is known")
    q.add_argument("--min-candidate", type=int, default=20, help="count above which a word is suggestible")
    q.set_defaults(func=cmd_spell_build_model)

    q = spell_sub.add_parser(
        "correct",
        help="correct tokenized text line by line",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    q.add_argument("--model", required=True, help="model TSV path")
    q.add_argument("--dict", required=True, help="dictionary word list")
    q.add_argument("--input", default=None, help="input text path (default stdin)")
    q.add_argument("--output", default=None, help="output text path (default stdout)")
    q.add_argument("--min-known", type=int, default=3, help="count at which a word is known")
    q.add_argument("--min-candidate", type=int, default=20, help="count above which a word is suggestible")
    q.set_defaults(func=cmd_spell_correct)

    p = sub.add_parser("synth", help="synthetic error generation")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    q = synth_sub.add_parser(
        "measure",
        help="measure the correction distribution of a training M2 file",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    q.add_argument("--train", required=True, help="annotated training M2 file")
    q.add_argument("-o", "--out", required=True, help="output distribution JSON path")
    q.add_argument("--annotator", type=int, default=0, help="annotator whose edits to measure")
    q.set_defaults(func=cmd_synth_measure)

    q = synth_sub.add_parser(
        "generate",
        help="generate a synthetic parallel corpus from clean sentences",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    q.add_argument("--pool", required=True, help="clean tokenized sentences, one per line")
    q.add_argument("--dist", required=True, help="distribution JSON path")
    q.add_argument("-n", type=int, required=True, help="number of sentences to generate")
    q.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    q.add_argument("--max-attempts", type=int, default=100, help="draw retries before giving up")
    q.add_argument("-o", "--out", required=True, help="output prefix (.src, .trg, .m2)")
    q.set_defaults(func=cmd_synth_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        M2ParseError,
        CorpusAlignmentError,
        OverlapError,
        GenerationExhaustedError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
