"""Seeded benchmark of the four gecmerge pipelines: combine, extract, spell, synth.

Usage (from the repository root):

    python3 perfbench/run.py --workload combine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

The seed generates the workload's input files (perfbench/gen.py); the
program only receives those files.  Each pipeline repetition runs its
CLI calls in a fresh child process (perfbench/child.py), repeating until
--seconds of pipeline time are measured.  The outputs are checked with
the benchmark's own code (perfbench/checks.py).  With --trace 0 the
last line of standard output is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with --trace 1, one untraced and one
traced repetition give the per-layer metrics and the tracing overhead.
Lines before it are a human-readable report.  --smoke runs all four
workloads at tiny sizes in both modes and checks that every metric is
reported.  Exit status: 0 on a result, 1 if a measurement could not be
taken, 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

WORK = ROOT / ".perfbench"
CHILD_TIMEOUT = 170


class MeasurementError(RuntimeError):
    pass


def run_child(spec, tag):
    spec_path = WORK / f"{tag}.spec.json"
    result_path = WORK / f"{tag}.result.json"
    spec = dict(spec, src=str(ROOT / "src"))
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0 or not result_path.is_file():
            raise MeasurementError(f"{spec['mode']} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        spec_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)


def output_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def judge(result, problems):
    """Per call: why it failed (non-zero exit, traceback, failed output check)."""
    failed = []
    for i, r in enumerate(result["ops"]):
        why = []
        if r["traceback"]:
            why.append("traceback: " + r["traceback"].strip().splitlines()[-1])
        elif r["code"] != 0:
            why.append(f"exit {r['code']}: {r['stderr'].strip()[-200:]}")
        why += problems.get(i, [])
        failed.append(why)
    return failed


def measure(workload, seed, seconds, trace, sizes):
    """Generate, run, check; returns (report lines, result object)."""
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    wdir = WORK / tag
    shutil.rmtree(wdir, ignore_errors=True)
    try:
        return _measure(workload, seed, seconds, trace, sizes, tag, wdir)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, sizes, tag, wdir):
    w = gen.GENERATORS[workload](seed, str(wdir), sizes)
    ops = [dataclasses.asdict(op) for op in w.ops]
    pipeline = {"mode": "pipeline", "ops": ops, "trace": False, "calibrate": not trace}
    reps, contract, digest, quality, extra = [], [], None, 0.0, {}
    wrong = 0  # output-check problems over all repetitions
    setup_times, setup_raw, defect = [], [], None
    measured = 0.0
    while True:
        traced = trace and len(reps) == 1
        spec = dict(pipeline, trace=traced, spans_path=str(WORK / f"spans-{workload}-{seed}.json"))
        result = run_child(spec, tag)
        now = output_digest(w.truth["out"])
        if digest is None or now != digest:
            if digest is not None:
                contract.append("outputs differ between repetitions of the same inputs")
            try:
                problems, quality, extra = checks.CHECKS[workload](w, result["ops"])
            except (KeyError, TypeError, ValueError, OSError) as exc:  # an output in an unexpected form
                problems, quality, extra = {}, 0.0, {}
                contract.append(f"output check failed on an unreadable output: {exc!r}")
            digest = now
        wrong += sum(len(p) for p in problems.values())
        for r in result["ops"]:
            if r["traceback"] or r["code"] not in (0, 1, 2):
                contract.append(f"exit-code contract broken: code {r['code']}")
        reps.append((result, judge(result, problems)))
        measured += result["wall"]
        if not trace:  # set-up is sampled after every repetition, so it spans the run too
            setup = run_child({"mode": "setup", "setup": w.setup}, tag)
            setup_times += setup["setup_calibrated"]
            setup_raw += setup["setup_times"]
            defect = setup.get("known_defect", defect)
        if (len(reps) == 2) if trace else measured >= seconds:
            break

    attempted = len(ops) * len(reps)
    failed = sum(1 for _, f in reps for why in f if why)
    correct = not contract and not wrong
    lines = [f"workload {workload}  seed {seed}  repetitions {len(reps)}  traced {bool(trace)}"]
    lines.append("input properties: " + json.dumps({**w.props, **extra}))
    for i, op in enumerate(w.ops):
        times = [r["ops"][i]["seconds"] for r, _ in reps]
        lines.append(f"  call {i:2d} {op.name:<18} sentences {op.sents:6d}  median {statistics.median(times):.4f} s"
                     f"  exit {reps[-1][0]['ops'][i]['code']}")
    reasons = sorted({why[0] for _, f in reps for why in f if why})
    for reason in reasons[:10] + contract[:5]:
        lines.append("  failure: " + reason)
    lines.append(f"  failed_share {failed / attempted:.6f} ratio  ({failed} of {attempted} calls)")
    if defect:
        lines.append(f"  known defect, adjacent insertions in synth generate: {defect}")

    if trace:
        plain, traced_rep = reps[0][0], reps[1][0]
        metrics = dict(traced_rep["layers"])
        metrics["trace.overhead_s"] = traced_rep["wall"] - plain["wall"]
        for name, a in sorted(traced_rep["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            lines.append(f"  span {name:<32} calls {a['calls']:7d}  self {a['self_s']:.4f} s  total {a['total_s']:.4f} s")
    else:
        def throughput(rep, clock):
            result, fails = rep
            done = sum(op.sents for op, why in zip(w.ops, fails) if not why)
            return done / result[clock]

        per_rep = [throughput(rep, "calibrated") for rep in reps]
        lines.append("  throughput per repetition, calibrated: " + " ".join(f"{x:.2f}" for x in per_rep))
        lines.append("  throughput per repetition, uncalibrated: "
                     + " ".join(f"{throughput(rep, 'wall'):.2f}" for rep in reps))
        lines.append("  speed probe median per repetition (ms): "
                     + " ".join(f"{r['probe_ms']:.3f}" for r, _ in reps))
        lines.append("  set-up times, calibrated: " + " ".join(f"{x:.4f}" for x in setup_times))
        lines.append("  set-up times, uncalibrated: " + " ".join(f"{x:.4f}" for x in setup_raw))
        metrics = {
            "throughput_sps": statistics.median(per_rep),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in reps),
            "output_f05": quality,
        }
    return lines, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def with_units(metrics, units):
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise MeasurementError(f"metrics not measured: {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def smoke():
    """Every workload at tiny size, both modes; every declared metric must appear."""
    end_to_end, per_layer = declared()
    bad = 0
    for workload in gen.GENERATORS:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            lines, result = measure(workload, 1, 0, trace, gen.SMOKE_SIZES[workload])
            missing = sorted(set(units) - set(result["metrics"]))
            status = "ok" if not missing and result["correct"] else "FAIL"
            bad += status != "ok"
            print(f"smoke {workload:<8} trace {trace}: {status}  correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} missing={missing}")
            if status != "ok":
                print("\n".join(lines))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS) + ["all"],
                        help="one workload, or all four in turn (last line: results by workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload in both modes")
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so the running child is killed and awaited
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gecmerge" / "cli.py").is_file():
        print(f"error: no gecmerge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        units = declared()[1 if args.trace else 0]
        workloads = list(gen.GENERATORS) if args.workload == "all" else [args.workload]
        results = {}
        for workload in workloads:
            lines, result = measure(workload, args.seed, args.seconds, args.trace, gen.SIZES[workload])
            result["metrics"] = with_units(result["metrics"], units)
            print("\n".join(lines))
            for name, m in result["metrics"].items():
                print(f"  {name} {m['value']} {m['unit']}")
            results[workload] = result
    except (MeasurementError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
