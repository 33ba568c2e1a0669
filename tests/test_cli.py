import json
import random
from pathlib import Path

import pytest

from gecmerge import dump_m2, load_m2, parse_m2
from gecmerge.cli import main
from helpers import slot_fixture

DATA = Path(__file__).parent / "data"


def _read(path):
    return Path(path).read_text(encoding="utf-8")


class TestExtract:
    def test_golden_single_line(self, tmp_path):
        out = tmp_path / "out.m2"
        rc = main(
            [
                "extract",
                "--orig", str(DATA / "extract_orig.txt"),
                "--corrected", str(DATA / "extract_corrected.txt"),
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert _read(out) == _read(DATA / "extract_golden.m2")

    def test_identical_files_yield_noops(self, tmp_path):
        text = tmp_path / "same.txt"
        text.write_text("a b c\nd e f\n", encoding="utf-8")
        out = tmp_path / "out.m2"
        assert main(["extract", "--orig", str(text), "--corrected", str(text), "-o", str(out)]) == 0
        corpus = load_m2(out)
        assert len(corpus) == 2
        assert all(not sent.edits for sent in corpus)
        assert _read(out).count("noop") == 2

    def test_line_count_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one line\n", encoding="utf-8")
        b.write_text("two\nlines\n", encoding="utf-8")
        rc = main(["extract", "--orig", str(a), "--corrected", str(b), "-o", str(tmp_path / "x.m2")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        rc = main(
            [
                "extract",
                "--orig", str(tmp_path / "absent.txt"),
                "--corrected", str(tmp_path / "absent.txt"),
                "-o", str(tmp_path / "x.m2"),
            ]
        )
        assert rc == 1


class TestTrainPolicy:
    def test_golden_policy_file(self, tmp_path):
        out = tmp_path / "policy.json"
        rc = main(
            [
                "train-policy",
                "--system-a", str(DATA / "sys1.m2"),
                "--system-b", str(DATA / "sys2.m2"),
                "--gold", str(DATA / "gold.m2"),
                "-o", str(out),
                "--min-samples", "0",
            ]
        )
        assert rc == 0
        assert _read(out) == _read(DATA / "policy_train_golden.json")

    def test_perfect_systems_report_f_one(self, tmp_path, capsys):
        out = tmp_path / "policy.json"
        gold = str(DATA / "gold.m2")
        rc = main(
            [
                "train-policy",
                "--system-a", gold,
                "--system-b", gold,
                "--gold", gold,
                "-o", str(out),
                "--min-samples", "0",
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["systems"]["combined"]["f"] == pytest.approx(1.0)

    def test_combined_dominates_in_report(self, tmp_path, capsys):
        rng = random.Random(11)
        for trial in range(10):
            (a, b), gold = slot_fixture(rng)
            a_path = tmp_path / f"a{trial}.m2"
            b_path = tmp_path / f"b{trial}.m2"
            g_path = tmp_path / f"g{trial}.m2"
            dump_m2(a_path, a.corpus)
            dump_m2(b_path, b.corpus)
            dump_m2(g_path, gold)
            rc = main(
                [
                    "train-policy",
                    "--system-a", str(a_path),
                    "--system-b", str(b_path),
                    "--gold", str(g_path),
                    "-o", str(tmp_path / f"p{trial}.json"),
                    "--min-samples", "0",
                    "--json",
                ]
            )
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            systems = report["systems"]
            f_combined = systems["combined"]["f"]
            singles = [v["f"] for k, v in systems.items() if k != "combined"]
            assert f_combined >= max(singles) - 1e-9

    def test_holdout_split_runs(self, tmp_path, capsys):
        rng = random.Random(13)
        (a, b), gold = slot_fixture(rng, n_sentences=12)
        a_path, b_path, g_path = tmp_path / "a.m2", tmp_path / "b.m2", tmp_path / "g.m2"
        dump_m2(a_path, a.corpus)
        dump_m2(b_path, b.corpus)
        dump_m2(g_path, gold)
        rc = main(
            [
                "train-policy",
                "--system-a", str(a_path),
                "--system-b", str(b_path),
                "--gold", str(g_path),
                "-o", str(tmp_path / "p.json"),
                "--holdout", "0.5",
                "--seed", "3",
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holdout"] == 0.5
        assert set(report["systems"]) == {"a", "b", "combined"}

    def test_gold_token_mismatch_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold.m2"
        gold.write_text(_read(DATA / "gold.m2").replace("S dogs is", "S cats is"), encoding="utf-8")
        rc = main(
            [
                "train-policy",
                "--system-a", str(DATA / "sys1.m2"),
                "--system-b", str(DATA / "sys2.m2"),
                "--gold", str(gold),
                "-o", str(tmp_path / "p.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: sentence 1: source tokens differ\n"
        assert not (tmp_path / "p.json").exists()

    def test_invalid_holdout_exits_2(self, tmp_path):
        gold = str(DATA / "gold.m2")
        rc = main(
            [
                "train-policy",
                "--system-a", gold,
                "--system-b", gold,
                "--gold", gold,
                "-o", str(tmp_path / "p.json"),
                "--holdout", "1.5",
            ]
        )
        assert rc == 2


class TestApplyPolicy:
    def test_replays_training_combination(self, tmp_path):
        out = tmp_path / "combined.m2"
        rc = main(
            [
                "apply-policy",
                "--system-a", str(DATA / "sys1.m2"),
                "--system-b", str(DATA / "sys2.m2"),
                "--policy", str(DATA / "policy_step1_golden.json"),
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert _read(out) == _read(DATA / "combined_golden.m2")


_POLICY_OK = json.loads(_read(DATA / "policy_step1_golden.json"))
_BAD_POLICIES = [
    {"version": 1},
    [],
    "policy",
    dict(_POLICY_OK, entries={}),
    dict(_POLICY_OK, entries=[1]),
    dict(_POLICY_OK, entries=[{"etype": "R:VERB", "subset": "both", "s": 1.0, "tp": 1}]),
    dict(_POLICY_OK, entries=[{"etype": "R:VERB", "subset": "both", "s": "1", "tp": 1, "fp": 0}]),
    dict(_POLICY_OK, entries=[{"etype": 7, "subset": "both", "s": 1.0, "tp": 1, "fp": 0}]),
    dict(_POLICY_OK, beta=None),
    dict(_POLICY_OK, min_samples=True),
    dict(_POLICY_OK, metadata=[]),
    dict(_POLICY_OK, metadata={"system_names": [1, 2]}),
]


@pytest.mark.parametrize("policy", _BAD_POLICIES)
def test_malformed_policy_exits_2(tmp_path, capsys, policy):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy), encoding="utf-8")
    rc = main(
        [
            "apply-policy",
            "--system-a", str(DATA / "sys1.m2"),
            "--system-b", str(DATA / "sys2.m2"),
            "--policy", str(path),
            "-o", str(tmp_path / "out.m2"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out.m2").exists()


class TestCombine:
    def test_three_system_golden(self, tmp_path):
        out = tmp_path / "combined.m2"
        prefix = tmp_path / "policy"
        rc = main(
            [
                "combine",
                str(DATA / "sys1.m2"),
                str(DATA / "sys2.m2"),
                str(DATA / "sys3.m2"),
                "--gold", str(DATA / "gold.m2"),
                "-o", str(out),
                "--policies", str(prefix),
                "--min-samples", "0",
            ]
        )
        assert rc == 0
        assert _read(out) == _read(DATA / "combined_golden.m2")
        assert _read(f"{prefix}.step1.json") == _read(DATA / "policy_step1_golden.json")
        assert _read(f"{prefix}.step2.json") == _read(DATA / "policy_step2_golden.json")

    def test_single_system_exits_2(self, tmp_path):
        rc = main(
            [
                "combine",
                str(DATA / "sys1.m2"),
                "--gold", str(DATA / "gold.m2"),
                "-o", str(tmp_path / "out.m2"),
            ]
        )
        assert rc == 2


class TestFilter:
    def test_filter_reports_improvement(self, tmp_path, capsys):
        out = tmp_path / "filtered.m2"
        rc = main(
            [
                "filter",
                "--system", str(DATA / "sys2.m2"),
                "--gold", str(DATA / "gold.m2"),
                "-o", str(out),
                "--policy", str(tmp_path / "p.json"),
                "--min-samples", "0",
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["systems"]["filtered"]["f"] >= report["systems"]["sys2"]["f"]
        assert (tmp_path / "p.json").exists()
        assert load_m2(out) is not None


class TestScore:
    def test_self_score_is_one(self, capsys):
        rc = main(["score", "--hyp", str(DATA / "gold.m2"), "--ref", str(DATA / "gold.m2")])
        assert rc == 0
        out = capsys.readouterr().out
        all_row = [line for line in out.splitlines() if line.startswith("ALL")]
        assert len(all_row) == 1
        assert "1.0000" in all_row[0]

    def test_json_report(self, capsys):
        rc = main(
            [
                "score",
                "--hyp", str(DATA / "sys2.m2"),
                "--ref", str(DATA / "gold.m2"),
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"]["tp"] == 2
        assert report["overall"]["fp"] == 1
        assert report["overall"]["fn"] == 2
        assert report["overall"]["f"] == pytest.approx(0.625)
        assert {t["etype"] for t in report["types"]} == {"R:VERB", "R:ORTH"}

    def test_table_sorted_by_gold_frequency(self, capsys):
        main(["score", "--hyp", str(DATA / "sys2.m2"), "--ref", str(DATA / "gold.m2")])
        lines = capsys.readouterr().out.splitlines()
        types = [line.split()[0] for line in lines[1:-1]]
        assert types == ["R:VERB", "R:ORTH"]

    def test_mismatched_sources_exit_2(self, tmp_path):
        other = tmp_path / "other.m2"
        dump_m2(other, parse_m2("S completely different\n"))
        rc = main(["score", "--hyp", str(other), "--ref", str(DATA / "gold.m2")])
        assert rc == 2


class TestApply:
    def test_corrected_text(self, tmp_path):
        out = tmp_path / "out.txt"
        rc = main(["apply", "--m2", str(DATA / "sys1.m2"), "-o", str(out)])
        assert rc == 0
        assert _read(out) == "the cat sits on mat\ndogs are nice\nI likes tea\n"

    def test_stdout_default(self, capsys):
        rc = main(["apply", "--m2", str(DATA / "sys1.m2")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "the cat sits on mat"


class TestSpell:
    def test_build_model_golden(self, tmp_path):
        out = tmp_path / "model.tsv"
        rc = main(
            [
                "spell", "build-model",
                "--corpus", str(DATA / "spell_corpus.txt"),
                "--dict", str(DATA / "spell_dict.txt"),
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert _read(out) == _read(DATA / "spell_model_golden.tsv")

    def test_correct_golden(self, tmp_path):
        out = tmp_path / "out.txt"
        rc = main(
            [
                "spell", "correct",
                "--model", str(DATA / "spell_model_golden.tsv"),
                "--dict", str(DATA / "spell_dict.txt"),
                "--input", str(DATA / "spell_input.txt"),
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert _read(out) == _read(DATA / "spell_output_golden.txt")

    def test_correct_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Teh cat\n"))
        rc = main(
            [
                "spell", "correct",
                "--model", str(DATA / "spell_model_golden.tsv"),
                "--dict", str(DATA / "spell_dict.txt"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "The cat\n"


class TestSynth:
    def test_measure_golden(self, tmp_path):
        out = tmp_path / "dist.json"
        rc = main(["synth", "measure", "--train", str(DATA / "synth_train.m2"), "-o", str(out)])
        assert rc == 0
        assert _read(out) == _read(DATA / "synth_dist_golden.json")

    def test_generate_golden(self, tmp_path):
        prefix = tmp_path / "gen"
        rc = main(
            [
                "synth", "generate",
                "--pool", str(DATA / "synth_pool.txt"),
                "--dist", str(DATA / "synth_dist_golden.json"),
                "-n", "6",
                "--seed", "0",
                "-o", str(prefix),
            ]
        )
        assert rc == 0
        for ext in (".src", ".trg", ".m2"):
            assert _read(f"{prefix}{ext}") == _read(DATA / f"synth_golden{ext}")

    def test_exhaustion_exits_2(self, tmp_path, capsys):
        pool = tmp_path / "pool.txt"
        pool.write_text("no matching words here\n", encoding="utf-8")
        dist = tmp_path / "dist.json"
        dist.write_text(
            json.dumps(
                {
                    "per_sentence_hist": {"1": 1.0},
                    "corrections": [
                        {"source": "", "replacement": "zebra", "etype": "M:NOUN", "prob": 1.0}
                    ],
                }
            ),
            encoding="utf-8",
        )
        rc = main(
            [
                "synth", "generate",
                "--pool", str(pool),
                "--dist", str(dist),
                "-n", "3",
                "--seed", "1",
                "--max-attempts", "10",
                "-o", str(tmp_path / "gen"),
            ]
        )
        assert rc == 2
        assert "zebra" in capsys.readouterr().err

    def test_zero_max_attempts_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "synth", "generate",
                "--pool", str(DATA / "synth_pool.txt"),
                "--dist", str(DATA / "synth_dist_golden.json"),
                "-n", "1",
                "--max-attempts", "0",
                "-o", str(tmp_path / "gen"),
            ]
        )
        assert rc == 2
        assert "max_attempts must be >= 1" in capsys.readouterr().err


_DIST_OK = json.loads(_read(DATA / "synth_dist_golden.json"))
_BAD_DISTRIBUTIONS = [
    {},
    [],
    {"per_sentence_hist": {"0": 1.0}},
    dict(_DIST_OK, per_sentence_hist=[1.0]),
    dict(_DIST_OK, per_sentence_hist={"0": "1.0"}),
    dict(_DIST_OK, per_sentence_hist={"zero": 1.0}),
    dict(_DIST_OK, corrections={}),
    dict(_DIST_OK, corrections=[None]),
    dict(_DIST_OK, corrections=[{"source": "a", "replacement": "b", "etype": "R:X"}]),
    dict(_DIST_OK, corrections=[{"source": "a", "replacement": 1, "etype": "R:X", "prob": 1.0}]),
]


@pytest.mark.parametrize(
    "source, replacement, etype",
    [(" ", "a", "R:X"), ("a", " the", "R:X"), ("a", "the  cat", "R:X"), ("a b ", "", "U:X"), ("a", "b", "")],
)
def test_non_canonical_correction_exits_2(tmp_path, capsys, source, replacement, etype):
    # every draw takes zero corrections, so only a check at load time can fail
    dist = {
        "per_sentence_hist": {"0": 1.0},
        "corrections": [{"source": source, "replacement": replacement, "etype": etype, "prob": 1.0}],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist), encoding="utf-8")
    rc = main(
        [
            "synth", "generate",
            "--pool", str(DATA / "synth_pool.txt"),
            "--dist", str(path),
            "-n", "2",
            "-o", str(tmp_path / "gen"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: correction ")
    assert "Traceback" not in err


@pytest.mark.parametrize("dist", _BAD_DISTRIBUTIONS)
def test_malformed_distribution_exits_2(tmp_path, capsys, dist):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist), encoding="utf-8")
    rc = main(
        [
            "synth", "generate",
            "--pool", str(DATA / "synth_pool.txt"),
            "--dist", str(path),
            "-n", "2",
            "-o", str(tmp_path / "gen"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestCliContract:
    def test_malformed_m2_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.m2"
        bad.write_text("S a b\nA 0 9|||T|||x|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
        rc = main(["score", "--hyp", str(bad), "--ref", str(bad)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train-policy", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for fragment in ("--beta", "--annotator", "--min-samples", "--seed", "--rounding", "--holdout"):
            assert fragment in out
        assert "default: 0.5" in out
        assert "default: 2" in out

    def test_deterministic_given_flags(self, tmp_path):
        out1 = tmp_path / "c1.m2"
        out2 = tmp_path / "c2.m2"
        for out in (out1, out2):
            rc = main(
                [
                    "combine",
                    str(DATA / "sys1.m2"),
                    str(DATA / "sys2.m2"),
                    str(DATA / "sys3.m2"),
                    "--gold", str(DATA / "gold.m2"),
                    "-o", str(out),
                    "--min-samples", "0",
                ]
            )
            assert rc == 0
        assert _read(out1) == _read(out2)
