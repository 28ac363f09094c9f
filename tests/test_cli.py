import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bellsim.cli import main
from bellsim.experiment import ExperimentConfig, config_to_dict, run_experiment
from bellsim.lhv import MAX_GRID_STEPS
from bellsim.loophole import demonstration_solution
from bellsim.quantum import AngleTriple, match_table

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorrelations:
    def test_canonical_angles_text(self, capsys):
        code, out, err = run_cli(capsys, "correlations", "--angles", "60,0,120")
        assert code == 0
        assert "0.250000" in out and "0.750000" in out
        assert "violation margin: 0.250000" in out
        assert err.startswith("config:")
        assert '"angles_degrees": [60.0, 0.0, 120.0]' in err  # not 59.99999999999999

    def test_json_is_a_single_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlations", "--angles", "60,0,120", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["angles_degrees"] == [60.0, 0.0, 120.0]  # not 59.99999999999999
        assert doc["violation_margin"] == pytest.approx(0.25)
        assert doc["match_probabilities"][1][2] == pytest.approx(0.75)

    def test_zero_angles(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlations", "--angles", "0,0,0", "--format", "json"
        )
        assert json.loads(out)["violation_margin"] == 0.0

    def test_csv_is_three_repr_rows_then_the_margin(self, capsys):
        from bellsim.counterfactuals import violation_margin
        from bellsim.quantum import AngleTriple, match_table

        angles = AngleTriple.from_degrees(60, 0, 120)
        code, out, _ = run_cli(
            capsys, "correlations", "--angles", "60,0,120", "--format", "csv"
        )
        rows = [",".join(repr(v) for v in row) for row in match_table(angles).rows]
        assert code == 0
        assert out == "\n".join([*rows, f"violation_margin,{violation_margin(angles)!r}"]) + "\n"

    def test_negative_first_angle_joined_by_equals(self, capsys):
        # argparse reads "--angles -30,0,30" as a missing value; joined by
        # "=" it is the same triple as 330,0,30, printed the same.
        negative = run_cli(capsys, "correlations", "--angles=-30,0,30", "--format", "json")
        assert negative[0] == 0
        assert negative == run_cli(capsys, "correlations", "--angles", "330,0,30",
                                   "--format", "json")

    def test_unparseable_angle_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["correlations", "--angles", "60,x,120"])
        assert exc.value.code == 2
        assert "argument --angles: unparseable angle in '60,x,120'" in capsys.readouterr().err

    def test_arity_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["correlations", "--angles", "60,0"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["correlations", "--angles", "60,0,120", "--frobnicate"])
        assert exc.value.code == 2


class TestTraceProof:
    def test_both_branches_render(self, capsys):
        code, out, _ = run_cli(capsys, "trace-proof")
        assert code == 0
        assert "branch (a):" in out and "branch (b):" in out
        assert out.count("contradiction") >= 2

    def test_json_steps(self, capsys):
        code, out, _ = run_cli(capsys, "trace-proof", "--format", "json")
        doc = json.loads(out)
        assert len(doc["traces"]) == 2
        assert all(t["contradiction"] for t in doc["traces"])

    def test_single_branch_filter(self, capsys):
        code, out, _ = run_cli(capsys, "trace-proof", "--branch", "a", "--format", "json")
        assert [t["branch"] for t in json.loads(out)["traces"]] == ["a"]


_SPEC = importlib.util.spec_from_file_location("transcript",
                                               SRC.parent / "tools" / "transcript.py")
transcript = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(transcript)


# What the CLI prints for each command of the committed transcript, byte for
# byte; ``PYTHONPATH=src python tools/transcript.py`` rewrites it.
@pytest.mark.parametrize("command", transcript.COMMANDS)
def test_transcript_entry_is_unchanged(command):
    text = transcript.TRANSCRIPT.read_bytes().decode()  # the CSV lines end in CRLF
    committed = re.split(r"(?m)^(?=\$ bellsim )", text)[1:]
    assert len(committed) == len(transcript.COMMANDS)
    assert transcript.block(command) == committed[transcript.COMMANDS.index(command)]


class TestSmallAnalyses:
    def test_lhv_max_prints_zero(self, capsys):
        code, out, _ = run_cli(capsys, "lhv-max", "--format", "json")
        assert code == 0
        assert json.loads(out)["max_bell_statistic"] == 0

    def test_stochastic_sup(self, capsys):
        code, out, _ = run_cli(
            capsys, "stochastic-sup", "--grid-steps", "5", "--format", "json"
        )
        doc = json.loads(out)
        assert abs(doc["supremum"]) <= 1e-12
        assert doc["argmax_is_vertex"] is True
        assert doc["evaluations"] == 5**6

    def test_grid_beyond_the_bound_is_invalid_input(self, capsys):
        code, out, err = run_cli(capsys, "stochastic-sup", "--grid-steps", "100000")
        assert code == 2 and out == ""
        assert err == f"error: grid_steps must be 2 to {MAX_GRID_STEPS}, got 100000\n"
        with pytest.raises(SystemExit):
            main(["stochastic-sup", "--help"])
        assert f"2 to {MAX_GRID_STEPS}" in capsys.readouterr().out


class TestSimulateAndTest:
    def test_quantum_pipeline_rejects(self, tmp_path, capsys):
        out_file = tmp_path / "data.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--source", "quantum",
            "--angles", "60,0,120",
            "--n", "9000",
            "--seed", "7",
            "--out", str(out_file),
        )
        assert code == 0
        assert (tmp_path / "data.csv.meta.json").exists()
        code, out, _ = run_cli(
            capsys, "test", "--in", str(out_file), "--alpha", "0.01", "--format", "json"
        )
        assert code == 0  # reject
        doc = json.loads(out)
        assert doc["decision"]["reject_lhv"] is True
        assert doc["estimate"]["statistic"] == pytest.approx(0.25, abs=0.05)

    def test_lhv_pipeline_retains(self, tmp_path, capsys):
        from bellsim.counterfactuals import CounterfactualTable, Population
        from bellsim.lhv import DeterministicLhv, save_model

        model_file = tmp_path / "model.json"
        save_model(
            DeterministicLhv(
                Population(
                    units=(
                        CounterfactualTable((1, 1, 1), (-1, -1, -1)),
                        CounterfactualTable((-1, -1, -1), (-1, -1, -1)),
                    ),
                    weights=(0.5, 0.5),
                )
            ),
            model_file,
        )
        data_file = tmp_path / "lhv.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--source", "deterministic-lhv",
            "--model", str(model_file),
            "--n", "9000",
            "--seed", "3",
            "--out", str(data_file),
        )
        assert code == 0
        code, _, _ = run_cli(capsys, "test", "--in", str(data_file))
        assert code == 1  # retain

    def test_successive_calls_do_not_share_flags(self, tmp_path, capsys):
        # main keeps one parser for the process; each call's flags must
        # still start from the defaults.
        data_file = tmp_path / "data.csv"
        run_cli(capsys, "simulate", "--source", "quantum", "--angles", "60,0,120",
                "--n", "900", "--seed", "7", "--out", str(data_file))
        _, out, _ = run_cli(capsys, "test", "--in", str(data_file), "--alpha", "0.05",
                            "--conditioning", "all-pairs", "--format", "json")
        doc = json.loads(out)
        assert doc["decision"]["alpha"] == 0.05
        assert doc["estimate"]["conditioning"] == "all-pairs"
        _, out, err = run_cli(capsys, "test", "--in", str(data_file))
        assert "one-sided lower bound at alpha=0.01:" in out
        echoed = json.loads(err.split("config: ", 1)[1])
        assert (echoed["alpha"], echoed["conditioning"]) == (0.01, "coincidences-only")
        with pytest.raises(SystemExit):
            main(["test", "--in", str(data_file), "--alpha", "0.2", "--format", "csv"])
        _, out, _ = run_cli(capsys, "test", "--in", str(data_file), "--format", "json")
        assert json.loads(out)["decision"]["alpha"] == 0.01

    def test_missing_model_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--source", "deterministic-lhv", "--n", "10", "--seed", "1"
        )
        assert code == 2
        assert "needs --model" in err

    @pytest.mark.parametrize("source, flags", (
        ("quantum", ("--angles", "60,0,120", "--model", "MODEL")),
        ("quantum", ("--angles", "60,0,120", "--solution", "SOLUTION")),
        ("deterministic-lhv", ("--model", "MODEL", "--angles", "60,0,120")),
        ("stochastic-lhv", ("--model", "STOCHASTIC", "--angles", "60,0,120")),
    ))
    def test_flag_the_source_does_not_use_is_usage_error(self, source, flags, tmp_path, capsys):
        files = {"MODEL": {"tables": [{"y1": [1, 1, 1], "y2": [-1, -1, -1]}]},
                 "STOCHASTIC": {"p1": [0.5] * 3, "p2": [0.5] * 3},
                 "SOLUTION": {"status": "feasible", "weights": {"7": 1.0}}}
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        flags = [str(tmp_path / f) if f in files else f for f in flags]
        code, out, err = run_cli(
            capsys, "simulate", "--source", source, *flags, "--n", "10", "--seed", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {source} source does not use ")

    def test_loophole_without_solution_or_angles_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--source", "loophole", "--n", "10", "--seed", "1"
        )
        assert code == 2 and out == ""
        assert err == "error: loophole source needs --solution FILE or --angles\n"

    def test_json_out_file_holds_the_stdout_document(self, tmp_path, capsys):
        flags = ("simulate", "--source", "quantum", "--angles", "60,0,120",
                 "--n", "40", "--seed", "5", "--format", "json")
        code, printed, _ = run_cli(capsys, *flags)
        assert code == 0
        out_file = tmp_path / "d.json"
        code, out, err = run_cli(capsys, *flags, "--out", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_text() == printed
        sidecar = json.loads((tmp_path / "d.json.meta.json").read_text())
        radians = sidecar.pop("angles_radians")  # the sidecar's alone: the angles bit for bit
        assert sidecar == json.loads(printed)["config"]
        assert sidecar["angles_degrees"] == [60.0, 0.0, 120.0]
        assert '"angles_degrees": [60.0, 0.0, 120.0]' in err
        assert radians == [math.radians(d) for d in (60, 0, 120)]
        assert sorted(os.listdir(tmp_path)) == ["d.json", "d.json.meta.json"]

    def test_missing_solution_file_is_invalid_input(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--source", "quantum", "--angles", "60,0,120",
            "--solution", str(tmp_path / "missing.json"), "--n", "10", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert "missing.json" in err

    def test_loophole_solution_with_angles_is_usage_error(self, tmp_path, capsys):
        # --angles would only build the demonstration solution that --solution
        # replaces, so a sidecar recording them would name unused angles.
        solution_file = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys, "loophole", "--angles", "45,0,90", "--floor", "0.3",
            "--save", str(solution_file),
        )
        assert code == 0
        data_file = tmp_path / "d.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--source", "loophole", "--solution", str(solution_file),
            "--angles", "60,0,120", "--n", "10", "--seed", "1", "--out", str(data_file),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--solution" in err and "--angles" in err
        assert not data_file.exists()
        assert not (tmp_path / "d.csv.meta.json").exists()

    def test_local_model_with_undetected_particles_retains_under_all_pairs(
        self, tmp_path, capsys
    ):
        # Strategy 17 (every spin -1, particle 1 detected only at setting 1,
        # particle 2 only at setting 2) and strategy 319 (detects every pair)
        # form a local model. Scoring an undetected pair as a non-match read
        # it as 0.499 and rejected local hidden variables.
        solution = tmp_path / "local.json"
        solution.write_text(json.dumps({"status": "feasible", "weights": {"17": 0.5, "319": 0.5}}))
        data = tmp_path / "local.csv"
        code, _, _ = run_cli(capsys, "simulate", "--source", "loophole", "--solution",
                             str(solution), "--n", "90000", "--seed", "3", "--out", str(data))
        assert code == 0
        code, out, _ = run_cli(capsys, "test", "--in", str(data), "--conditioning", "all-pairs")
        assert code == 1
        assert out.startswith("Bell statistic: -0.005180 ")
        assert "decision: retain local hidden variables" in out

    def test_seed_is_generated_and_echoed_when_absent(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--source", "quantum", "--angles", "0,0,0", "--n", "5"
        )
        assert code == 0
        assert "seed:" in err
        seed = int(err.split("seed: ", 1)[1].split(" ", 1)[0])
        assert 0 <= seed < 2**63

    def test_import_loads_no_hash_modules(self):
        # The generated seed comes from random.SystemRandom, not secrets,
        # whose hmac import loads OpenSSL's _hashlib in every process.
        probe = ("import sys, bellsim.cli; "
                 "print(sorted({'secrets', 'hmac', 'hashlib', '_hashlib'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_same_seed_reproduces_stdout(self, capsys):
        args = (
            "simulate", "--source", "quantum", "--angles", "60,0,120",
            "--n", "200", "--seed", "42", "--format", "json",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert len(doc["records"]) == 200

    def test_json_records_are_the_iterated_rows_byte_for_byte(self, capsys):
        # The demonstration solution leaves spins undetected, which print as null.
        code, out, _ = run_cli(capsys, "simulate", "--source", "loophole", "--angles",
                               "60,0,120", "--n", "300", "--seed", "3", "--format", "json")
        assert code == 0
        angles = AngleTriple.from_degrees(60, 0, 120)
        config = ExperimentConfig(300, 3, "loophole", angles=angles,
                                  solution=demonstration_solution(match_table(angles)))
        data = run_experiment(config)
        assert not (data.d1.all() or data.d2.all())
        rows = [list(row) for row in data]
        assert out == json.dumps({"config": config_to_dict(config), "records": rows}) + "\n"

    def test_workers_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--source", "quantum", "--angles", "60,0,120",
                  "--n", "1000", "--seed", "5", "--workers", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("x1", ("-1", "7"))
    def test_setting_outside_range_is_invalid_input(self, x1, tmp_path, capsys):
        data_file = tmp_path / "bad.csv"
        rows = [f"{i},{x1 if i == 5 else i % 3},{(i // 3) % 3},1,-1,1,1" for i in range(40)]
        data_file.write_text("index,x1,x2,y1,y2,d1,d2\n" + "\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "test", "--in", str(data_file))
        assert code == 2
        assert "x1 must be 0, 1 or 2" in err

    @pytest.mark.parametrize("row", (" 9,0,0,1,1,1,1", "9,01,0,1,1,1,1", "-0,0,0,1,1,1,1", "  "))
    def test_formerly_tolerated_spelling_is_invalid_input(self, row, tmp_path, capsys):
        data_file = tmp_path / "spelled.csv"
        rows = [f"{i},{i % 3},{(i // 3) % 3},1,-1,1,1" for i in range(-20, 0)]
        data_file.write_text("index,x1,x2,y1,y2,d1,d2\n" + "\n".join([*rows, row]) + "\n")
        code, out, err = run_cli(capsys, "test", "--in", str(data_file))
        assert code == 2
        assert err.startswith("error: line 22: ") and "decision" not in out

    @pytest.mark.parametrize("at", ("header", "row"))
    def test_overlong_line_is_invalid_input(self, at, tmp_path, capsys):
        data_file = tmp_path / "long.csv"
        head = b"" if at == "header" else b"index,x1,x2,y1,y2,d1,d2\n0,0,0,,,0,0\n"
        data_file.write_bytes(head + b"7" * (4 << 20) + b"\n")
        code, out, err = run_cli(capsys, "test", "--in", str(data_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: unexpected dataset header '777" if at == "header"
                              else "error: line 3: a line of 4096 bytes or more is no dataset")

    def test_unexpected_exception_exits_3(self, tmp_path, capsys, monkeypatch):
        import bellsim.cli

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        data_file = tmp_path / "data.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--source", "quantum", "--angles", "60,0,120",
            "--n", "900", "--seed", "1", "--out", str(data_file),
        )
        assert code == 0
        monkeypatch.setattr(bellsim.cli, "estimate", broken)
        code, out, err = run_cli(capsys, "test", "--in", str(data_file))
        assert code == 3
        assert "RuntimeError: boom" in err and "decision" not in out

    @pytest.mark.parametrize(
        "weights",
        ({"-1": 1.0}, {"5000": 1.0}, {"7": 1.5, "8": -0.5}, {"7": 0.5}, {"1.5": 1.0}),
    )
    def test_invalid_solution_file_is_invalid_input(self, weights, tmp_path, capsys):
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(json.dumps({"status": "feasible", "weights": weights}))
        code, _, err = run_cli(
            capsys, "simulate", "--source", "loophole", "--solution", str(solution_file),
            "--n", "10", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error:")


    @pytest.mark.parametrize("key", ("7_0", " 7 ", "+7", "\u0667"))
    def test_non_decimal_strategy_key_is_invalid_input(self, key, tmp_path, capsys):
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(json.dumps({"status": "feasible", "weights": {key: 1.0}}))
        code, out, err = run_cli(
            capsys, "simulate", "--source", "loophole", "--solution", str(solution_file),
            "--n", "10", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert f"error: bad strategy index {key!r}" in err

    def test_malformed_rates_in_solution_file_is_invalid_input(self, tmp_path, capsys):
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(
            json.dumps({"status": "feasible", "weights": {"7": 1.0}, "coincidence_rates": 5})
        )
        code, _, err = run_cli(
            capsys, "simulate", "--source", "loophole", "--solution", str(solution_file),
            "--n", "10", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "model",
        (
            [{"y1": [1, 1, 1], "y2": [1, 1, 1]}],
            {"tables": 5},
            {"tables": [{"y1": [1, 1, 1]}]},
            {"tables": [{"y1": [1, 1, 1], "y2": [1, 1, 1]}], "weights": [None]},
            {"tables": [{"y1": [1, 1, 1], "y2": [1, 1, 1]}] * 2, "weights": [math.nan, 1.0]},
            {"tables": [{"y1": [1, 1, 1], "y2": [1, 1, 1]}] * 3, "weights": []},
            {"tables": [{"y1": [1.5, 1, 1], "y2": [1, 1, 1]}]},
            {"p1": [10**400, 0, 0], "p2": [0, 0, 0]},
        ),
        ids=("a list", "tables not a list", "table without y2", "null weight", "NaN weight",
             "empty weights", "spin 1.5", "int beyond float"),
    )
    def test_malformed_model_file_is_invalid_input(self, model, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model))
        code, out, err = run_cli(
            capsys, "simulate", "--source", "deterministic-lhv", "--model", str(model_file),
            "--n", "10", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error:") and "model" in err and out == ""

    @pytest.mark.parametrize("source, flag, text", (
        ("loophole", "--solution", '{"status": "feasible", "weights": {"4095": 0.5, "4095": 1.0}}'),
        ("stochastic-lhv", "--model",
         '{"p1": [0.1, 0.5, 0.9], "p2": [0.2, 0.4, 0.6], "p1": [1, 1, 1]}'),
    ), ids=("solution", "model"))
    def test_key_given_twice_in_an_input_file_is_invalid_input(self, source, flag, text,
                                                               tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--source", source, flag, str(path),
                                 "--n", "10", "--seed", "1")
        assert (code, out) == (2, "")
        assert "given twice" in err

    # Each of these read as a number and ran to an answer: 600 degrees,
    # 60 degrees, a floor of 1.0, 10 trials and seed 1.
    @pytest.mark.parametrize("argv, message", (
        (("loophole", "--angles", "60_0,0,120", "--max-efficiency"),
         "argument --angles: unparseable angle in '60_0,0,120'"),
        (("correlations", "--angles", "\u0666\u0660,0,120"),
         "argument --angles: unparseable angle in '\u0666\u0660,0,120'"),
        (("loophole", "--angles", "60,0,120", "--floor", "0_1"),
         "argument --floor: invalid float value: '0_1'"),
        (("simulate", "--source", "quantum", "--angles", "60,0,120", "--n", "\u0661\u0660",
          "--seed", "1"),
         "argument --n: invalid int value: '\u0661\u0660'"),
        (("simulate", "--source", "quantum", "--angles", "60,0,120", "--n", "10",
          "--seed", " 1"),
         "argument --seed: invalid int value: ' 1'"),
        (("simulate", "--source", "quantum", "--angles", "60,0,120", "--n", "010",
          "--seed", "1"),
         "argument --n: invalid int value: '010'"),
        (("simulate", "--source", "quantum", "--angles", "60,0,120", "--n", "10",
          "--seed", "+7"),
         "argument --seed: invalid int value: '+7'"),
    ), ids=("underscored angle", "arabic-indic angle", "underscored floor", "arabic-indic n",
            "spaced seed", "zero-led n", "plus-signed seed"))
    def test_number_not_in_ascii_decimal_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("floor, status", (
        ("1e0", "infeasible"), ("1.", "infeasible"), (".5", "feasible"), ("+0.5E0", "feasible"),
    ))
    def test_ascii_decimal_spellings_are_read(self, floor, status, capsys):
        code, out, _ = run_cli(capsys, "loophole", "--angles", "60,0,120", "--floor", floor)
        assert code == 0 and out.startswith(f"status: {status}\n")

    # An integer reads in one spelling, as lhv.CANONICAL_INT: a minus sign,
    # but no plus sign or leading zero.
    def test_negative_seed_is_read(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--source", "quantum",
                                 "--angles", "60,0,120", "--n", "3", "--seed", "-7")
        assert code == 0 and '"seed": -7' in err
        assert len(out.splitlines()) == 4


class TestLoopholeCommand:
    def test_max_efficiency_frozen_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "loophole", "--angles", "60,0,120", "--max-efficiency", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["max_faking_efficiency"] == pytest.approx(2 / 3, abs=1e-9)

    def test_max_efficiency_text_prints_exact_two_thirds(self, capsys):
        code, out, err = run_cli(capsys, "loophole", "--angles", "60,0,120", "--max-efficiency")
        assert code == 0
        assert out == "maximum faking efficiency: 0.6667\n"
        assert '"angles_degrees": [60.0, 0.0, 120.0]' in err

    def test_floor_solve_reports_rates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "loophole", "--angles", "60,0,120", "--floor", "0.5", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["status"] == "feasible"
        assert doc["min_coincidence_rate"] >= 0.5

    def test_infeasible_at_full_detection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "loophole", "--angles", "60,0,120", "--floor", "1.0", "--format", "json",
        )
        assert json.loads(out)["status"] == "infeasible"

    def test_floor_boundary_is_the_max_efficiency(self, capsys):
        # A floor is feasible up to the number --max-efficiency prints, with
        # no phase-1 tolerance above it. Floors within rounding of that
        # number are decided by the computed optimum, so only one clearly
        # above it is asserted infeasible.
        _, out, _ = run_cli(
            capsys, "loophole", "--angles", "60,0,120", "--max-efficiency", "--format", "json",
        )
        eta = json.loads(out)["max_faking_efficiency"]
        for floor, status in ((eta, "feasible"), (eta + 1e-6, "infeasible")):
            code, out, _ = run_cli(
                capsys, "loophole", "--angles", "60,0,120", "--floor", repr(floor),
                "--format", "json",
            )
            doc = json.loads(out)
            assert (code, doc["status"]) == (0, status), floor
            if status == "feasible":
                assert doc["min_coincidence_rate"] == eta

    def test_floor_above_a_diverging_phase_one_is_infeasible(self, capsys):
        # Phase 1 of this floor-1 program does not finish; a relabeled Bell
        # sum of 0.0138 decides it (the floor-0 optimum is 0.985).
        code, out, _ = run_cli(capsys, "loophole", "--angles", "212,177,0", "--floor", "1")
        assert (code, out) == (0, "status: infeasible\n")

    # Real census triple 91, whose Bell statistic, 0.00036, answers floor 1
    # with no solve. Its floor-0 solve, which did not finish under Bland's
    # rule, finishes certified under Dantzig's; HiGHS finds 0.9996440399774037.
    NON_LOCAL = "301.4804809673983,125.58231232781922,304.8986802749712"

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_floor_one_of_a_barely_non_local_target_is_infeasible(self, fmt, capsys):
        code, out, _ = run_cli(capsys, "loophole", "--angles", self.NON_LOCAL, "--floor", "1",
                               "--format", fmt)
        assert code == 0
        if fmt == "text":
            assert out == "status: infeasible\n"
        else:
            assert json.loads(out)["status"] == "infeasible"

    def test_max_efficiency_of_a_barely_non_local_target(self, capsys):
        code, out, _ = run_cli(capsys, "loophole", "--angles", self.NON_LOCAL,
                               "--max-efficiency", "--format", "json")
        assert code == 0
        value = json.loads(out)["max_faking_efficiency"]
        assert value == pytest.approx(0.9996440399774037, abs=1e-9)

    # The stealth program at these angles reports unbounded, although z <= 1
    # bounds it: a solver breakdown, which is never printed as an answer.
    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_demo_breakdown_exits_3(self, fmt, capsys):
        code, out, err = run_cli(
            capsys, "loophole", "--angles", "181,7,6", "--demo", "--format", fmt
        )
        assert (code, out) == (3, "")
        assert "SimplexError: floor-0 faking program reported unbounded" in err

    def test_a_breakdown_is_no_solution_status(self, tmp_path, capsys):
        from bellsim.loophole import SOLUTION_STATUSES

        assert SOLUTION_STATUSES == ("feasible", "infeasible")
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(json.dumps({"status": "unbounded-error", "weights": {}}))
        code, out, err = run_cli(
            capsys, "simulate", "--source", "loophole", "--solution", str(solution_file),
            "--n", "10", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "error: unknown solution status 'unbounded-error'" in err

    def test_demo_solution_feeds_simulate(self, tmp_path, capsys):
        solution_file = tmp_path / "solution.json"
        code, _, _ = run_cli(
            capsys,
            "loophole", "--angles", "60,0,120", "--demo",
            "--save", str(solution_file), "--format", "json",
        )
        assert code == 0 and solution_file.exists()
        from bellsim.loophole import demonstration_solution, load_solution
        from bellsim.quantum import AngleTriple, match_table

        demo = demonstration_solution(match_table(AngleTriple.from_degrees(60, 0, 120)))
        assert load_solution(solution_file) == demo
        data_file = tmp_path / "fake.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--source", "loophole",
            "--solution", str(solution_file),
            "--n", "60000",
            "--seed", "9",
            "--out", str(data_file),
        )
        assert code == 0
        code, _, _ = run_cli(capsys, "test", "--in", str(data_file))
        assert code == 0  # coincidences-only analysis is fooled
        code, _, _ = run_cli(
            capsys, "test", "--in", str(data_file), "--conditioning", "all-pairs"
        )
        assert code == 1  # all-pairs accounting is not

    @pytest.mark.parametrize("flags", (
        ("--demo", "--floor", "0.9"),
        ("--floor", "0", "--demo"),
        ("--max-efficiency", "--demo"),
        ("--max-efficiency", "--floor", "0.5"),
    ))
    def test_modes_are_exclusive(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loophole", "--angles", "60,0,120", *flags])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_save_with_max_efficiency_is_usage_error(self, tmp_path, capsys):
        solution_file = tmp_path / "solution.json"
        code, out, err = run_cli(
            capsys, "loophole", "--angles", "60,0,120", "--max-efficiency",
            "--save", str(solution_file),
        )
        assert code == 2 and out == "" and not solution_file.exists()
        assert err.startswith("error: --save")

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_save_of_an_infeasible_result_says_nothing_was_saved(self, fmt, tmp_path, capsys):
        solution_file = tmp_path / "solution.json"
        argv = ("loophole", "--angles", "60,0,120", "--floor", "1.0", "--format", fmt)
        plain = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, *argv, "--save", str(solution_file))
        assert (code, out) == plain[:2] and code == 0 and "infeasible" in out
        assert not solution_file.exists()
        assert err == plain[2] + f"note: status infeasible, nothing saved to {solution_file}\n"


def sidecar_config(doc: dict):
    """The ``ExperimentConfig`` the sidecar ``doc`` records, rebuilt from its
    fields: the angles bit for bit from ``angles_radians``."""
    from bellsim.experiment import ExperimentConfig
    from bellsim.lhv import model_from_dict
    from bellsim.loophole import LpSolution
    from bellsim.quantum import AngleTriple

    radians, model, solution = doc.get("angles_radians"), doc["model"], doc["solution"]
    return ExperimentConfig(
        n_trials=doc["n_trials"],
        seed=doc["seed"],
        source=doc["source"],
        angles=AngleTriple.from_radians(*radians) if radians else None,
        model=model_from_dict(model) if model else None,
        solution=LpSolution.from_dict(solution) if solution else None,
        setting_distribution=doc["setting_distribution"],
    )


class TestSidecar:
    """A dataset's sidecar records the configuration that reproduces it
    through the library."""

    @pytest.mark.parametrize("case", (
        "quantum", "deterministic-lhv", "stochastic-lhv", "loophole --solution",
        "loophole --angles", "--meta",
    ))
    def test_sidecar_reproduces_the_dataset(self, case, tmp_path, capsys):
        from bellsim.experiment import run_experiment, write_dataset_csv

        (tmp_path / "model.json").write_text(
            json.dumps({"tables": [{"y1": [1, -1, 1], "y2": [-1, 1, 1]}] * 2,
                        "weights": [0.25, 0.75]})
        )
        (tmp_path / "stochastic.json").write_text(
            json.dumps({"p1": [0.1, 0.5, 0.9], "p2": [0.3, 0.6, 1.0]})
        )
        solution = tmp_path / "solution.json"
        if case == "loophole --solution":
            assert run_cli(capsys, "loophole", "--angles", "45,0,90", "--floor", "0.5",
                           "--save", str(solution))[0] == 0
        quantum = ("--source", "quantum", "--angles", "60,0,120")
        flags = {
            "quantum": quantum,
            "deterministic-lhv": ("--source", "deterministic-lhv",
                                  "--model", str(tmp_path / "model.json")),
            "stochastic-lhv": ("--source", "stochastic-lhv",
                               "--model", str(tmp_path / "stochastic.json"),
                               "--setting-distribution", "uniform-4"),
            "loophole --solution": ("--source", "loophole", "--solution", str(solution)),
            "loophole --angles": ("--source", "loophole", "--angles", "60,0,120"),
            "--meta": (*quantum, "--meta", str(tmp_path / "side.json")),
        }[case]
        data = tmp_path / "d.csv"
        code, _, _ = run_cli(capsys, "simulate", *flags, "--n", "3000", "--seed", "17",
                             "--out", str(data))
        assert code == 0
        default = tmp_path / "d.csv.meta.json"
        meta = tmp_path / "side.json" if case == "--meta" else default
        assert default.exists() == (case != "--meta")  # --meta replaces the default sidecar
        config = sidecar_config(json.loads(meta.read_text()))
        again = tmp_path / "again.csv"
        write_dataset_csv(run_experiment(config), again)
        assert again.read_bytes() == data.read_bytes()

    # Two of the paths simulate writes or reads name one file: it is refused
    # before any file is opened, and the file keeps its bytes. The sidecar's
    # default name, <out>.meta.json, counts as a path too. L is a symbolic
    # link to F, and H a hard link.
    @pytest.mark.parametrize("case, message", (
        ("--out F --meta F", "--out and --meta"),
        ("--out F --meta d/../F", "--out and --meta"),
        ("--out F --meta L", "--out and --meta"),
        ("--out F --meta H", "--out and --meta"),
        ("--out F --model F", "--out and --model"),
        ("--meta F --model ./F", "--meta and --model"),
        ("--out G --model G.meta.json", "the sidecar and --model"),
        ("--out F --solution F", "--out and --solution"),
        ("--meta d/../F --solution F", "--meta and --solution"),
    ))
    def test_paths_naming_one_file_are_refused(self, case, message, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        kept = b'{"p1": [0.1, 0.5, 0.9], "p2": [0.3, 0.6, 1.0]}'
        for name in ("F", "G.meta.json"):
            (tmp_path / name).write_bytes(kept)
        (tmp_path / "L").symlink_to("F")
        os.link(tmp_path / "F", tmp_path / "H")
        source = (("--source", "loophole") if "--solution" in case
                  else ("--source", "stochastic-lhv") if "--model" in case
                  else ("--source", "quantum", "--angles", "60,0,120"))
        code, out, err = run_cli(capsys, "simulate", *source, *case.split(),
                                 "--n", "10", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message} name one file: ")
        assert "config:" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "G.meta.json", "H", "L", "d"]
        assert (tmp_path / "F").read_bytes() == (tmp_path / "G.meta.json").read_bytes() == kept


class TestPipe:
    """``simulate | test`` through real OS pipes, in separate processes."""

    @staticmethod
    def bellsim(*argv, **kwargs):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.Popen(
            [sys.executable, "-m", "bellsim.cli", *argv],
            env=env, stderr=subprocess.PIPE, **kwargs,
        )

    def test_simulate_pipes_into_test(self, tmp_path, capsys):
        simulate = self.bellsim(
            "simulate", "--source", "quantum", "--angles", "60,0,120",
            "--n", "3000", "--seed", "5", stdout=subprocess.PIPE,
        )
        test = self.bellsim("test", "--format", "json", stdin=simulate.stdout,
                            stdout=subprocess.PIPE)
        simulate.stdout.close()  # the test process holds the only read end
        out, err = test.communicate(timeout=120)
        simulate_err = simulate.communicate(timeout=120)[1]
        assert simulate.returncode == 0, simulate_err
        assert test.returncode == 0, err
        assert b'"n_records": 3000' in err

        data_file = tmp_path / "data.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--source", "quantum", "--angles", "60,0,120",
            "--n", "3000", "--seed", "5", "--out", str(data_file),
        )
        assert code == 0
        code, in_process, _ = run_cli(capsys, "test", "--in", str(data_file), "--format", "json")
        assert code == 0
        assert json.loads(out) == json.loads(in_process)

    def test_malformed_input_on_a_pipe_exits_2(self):
        test = self.bellsim("test", stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        out, err = test.communicate(b"index,x1,x2,y1,y2,d1,d2\n05,1,2,1,-1,1,1\n", timeout=120)
        assert test.returncode == 2
        assert err.startswith(b"error: line 2: ") and out == b""
