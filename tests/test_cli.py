"""Command-line interface: file outputs, determinism, exit-code policy."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefplan.cli as cli
from beliefplan.errors import (BeliefPlanError, EvaluationError, InvalidScenario, LayoutMismatch,
                               RankDeficientAugmentation)
from beliefplan.scenario import run_session, scenario_from_json

from helpers import KeyTwice, malformed_text, mutate_json

DATA = Path(__file__).parent / "data"
TINY = DATA / "tiny_scenario.json"
TINY_DOC = json.loads(TINY.read_text())


def run(argv):
    return cli.main(argv)


class TestGenerate:
    def test_writes_scenario_with_requested_shape(self, tmp_path, capsys):
        out = tmp_path / "sc.json"
        code = run(["generate", "--seed", "7", "--n-poses", "24", "--candidates", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["poses"]) == 24
        assert len(doc["candidates"]) == 5
        summary = capsys.readouterr().out
        assert "dim=72" in summary and "candidates=5" in summary

    def test_the_tiny_fixture_is_what_generate_writes(self, tmp_path):
        out = tmp_path / "tiny.json"
        argv = ["generate", "--seed", "11", "--n-poses", "16", "--candidates", "4", "--candidate-length", "3"]
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == TINY.read_bytes()

    def test_same_seed_gives_identical_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["generate", "--seed", "3", "--n-poses", "20", "--out", str(a)])
        run(["generate", "--seed", "3", "--n-poses", "20", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value, field", [
        ("--pos-std", "nan", "position_std"),
        ("--ang-std", "inf", "angular_std"),
        ("--world-extent", "inf", "world_extent"),
        ("--world-extent", "nan", "world_extent"),
        ("--loop-radius", "nan", "loop_closure_radius"),
    ])
    def test_non_finite_scale_exits_1_naming_the_field(self, flag, value, field, tmp_path, capsys):
        out = tmp_path / "sc.json"
        assert run(["generate", "--n-poses", "12", flag, value, "--out", str(out)]) == cli.EXIT_ERROR
        assert f"{field} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--pos-std", "1e-160", "position_std is so small that 1/position_std^2 overflows"),
        ("--ang-std", "1e-160", "angular_std is so small that 1/angular_std^2 overflows"),
        ("--pos-std", "1e10", "not positive definite at the x of pose 0 of the poses"),
        ("--ang-std", "1e10", "not positive definite at the heading of pose 4 of the poses"),
    ])
    def test_extreme_noise_std_exits_1_naming_the_field_or_the_pose(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "sc.json"
        assert run(["generate", flag, value, "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Warning" not in err
        assert not out.exists()

    def test_wider_loop_radius_densifies_information(self, tmp_path):
        narrow = tmp_path / "narrow.json"
        wide = tmp_path / "wide.json"
        run(["generate", "--seed", "2", "--n-poses", "300", "--loop-radius", "2", "--out", str(narrow)])
        run(["generate", "--seed", "2", "--n-poses", "300", "--loop-radius", "5", "--out", str(wide)])
        nnz_narrow = scenario_from_json(narrow.read_text()).prior.root.gram().nnz
        nnz_wide = scenario_from_json(wide.read_text()).prior.root.gram().nnz
        assert nnz_wide > nnz_narrow


class TestSolve:
    def test_golden_session_csv(self, tmp_path):
        # frozen scenario -> frozen per-candidate table (timing columns vary)
        code = run(["solve", "--scenario", str(TINY), "--out-dir", str(tmp_path)])
        assert code == 0
        got = (tmp_path / "session_11.csv").read_text().strip().splitlines()
        golden = (DATA / "golden_session.csv").read_text().strip().splitlines()
        assert got[0] == golden[0]
        header = got[0].split(",")
        stable = [i for i, name in enumerate(header) if not name.startswith("t_")]
        for got_line, golden_line in zip(got[1:], golden[1:]):
            g = got_line.split(",")
            e = golden_line.split(",")
            assert g[0] == e[0]
            for i in stable[1:]:
                np.testing.assert_allclose(float(g[i]), float(e[i]), rtol=1e-9)

    def test_json_summary_contents(self, tmp_path):
        run(["solve", "--scenario", str(TINY), "--out-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "session_11.json").read_text())
        assert {m["label"] for m in doc["modes"]} == {"uninvolved", "full"}
        uninv = next(m for m in doc["modes"] if m["label"] == "uninvolved")
        assert uninv["loss"] == 0.0 and uninv["rho"] == 1.0
        assert set(doc["loss_bounds"]["full"]) == {"topological", "determinant", "topological_by_ratio"}
        assert set(doc["loss_bounds"]["full"]["topological_by_ratio"]) == {"0.01", "0.25", "0.85"}

    def test_mode_none_reports_baseline_only(self, tmp_path):
        code = run(["solve", "--scenario", str(TINY), "--mode", "none", "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "session_11.json").read_text())
        assert doc["modes"] == []
        assert "loss" not in doc["baseline"]

    def test_custom_mode_with_blocks(self, tmp_path):
        code = run([
            "solve", "--scenario", str(TINY), "--mode", "custom", "--blocks", "0,1,2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "session_11.json").read_text())
        assert doc["modes"][0]["label"] == "custom"

    def test_ratio_flag_controls_bound_columns(self, tmp_path):
        run(["solve", "--scenario", str(TINY), "--ratios", "0.1,0.5", "--out-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "session_11.json").read_text())
        assert set(doc["loss_bounds"]["full"]["topological_by_ratio"]) == {"0.1", "0.5"}

    def test_guarantee_violation_exit_code(self, tmp_path, monkeypatch):
        # doctor the report so the zero-loss guarantee of uninvolved-mode
        # sparsification appears violated; the command must exit nonzero
        real_run_session = run_session

        def doctored(scenario, **kwargs):
            report = real_run_session(scenario, **kwargs)
            bad_modes = []
            for res in report.modes:
                if res.label == "uninvolved":
                    from dataclasses import replace

                    res = replace(res, loss=0.5, offset_identity=0.5)
                bad_modes.append(res)
            from dataclasses import replace

            return replace(report, modes=tuple(bad_modes))

        monkeypatch.setattr(cli, "run_session", doctored)
        code = run(["solve", "--scenario", str(TINY), "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_GUARANTEE_VIOLATED

    def test_repeated_mode_exits_1_without_output(self, tmp_path, capsys):
        code = run(["solve", "--scenario", str(TINY), "--mode", "full", "--mode", "full", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_ERROR
        assert "mode 'full' is requested more than once" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["solve", "--scenario", str(tmp_path / "nope.json")]) == cli.EXIT_ERROR

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_one_candidate_exits_1_before_scoring(self, command, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "one.json"
        config = ["--seed", "3", "--n-poses", "12", "--candidates", "1"]
        assert run(["generate", *config, "--out", str(scenario)]) == cli.EXIT_OK
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def no_scoring(*args, **kwargs):
            raise AssertionError("a candidate was scored")

        monkeypatch.setattr("beliefplan.scenario.evaluate_candidates", no_scoring)
        if command == "solve":
            code = run(["solve", "--scenario", str(scenario), "--out-dir", str(out_dir)])
        else:
            code = run(["bench", *config, "--seeds", "1", "--out-dir", str(out_dir)])
        assert code == cli.EXIT_ERROR
        assert "at least two candidates to rank; the scenario has 1" in capsys.readouterr().err
        assert not any(out_dir.iterdir())


class TestBench:
    def test_writes_aggregate_outputs(self, tmp_path, capsys):
        code = run([
            "bench", "--seeds", "3", "--n-poses", "18", "--candidates", "4",
            "--candidate-length", "3", "--repeats", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        header = (tmp_path / "bench.csv").read_text().splitlines()[0].split(",")
        assert header[:3] == ["seed", "prior_dim", "uninvolved_ratio"]
        for name in ("uninvolved", "full"):
            for col in ("runtime_delta", "sparsify_share", "nnz_delta", "rho", "loss"):
                assert f"{col}_{name}" in header
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert len(doc["sessions"]) == 3
        assert doc["medians"]["loss_uninvolved"] == 0.0
        table = capsys.readouterr().out
        assert "median" in table

    def test_mode_none_adds_no_columns(self, tmp_path):
        # the original problem is always reported, so "none" is not a column group
        code = run([
            "bench", "--seeds", "1", "--n-poses", "18", "--candidates", "4", "--candidate-length", "3",
            "--repeats", "1", "--modes", "none,full", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        header = (tmp_path / "bench.csv").read_text().splitlines()[0].split(",")
        assert header == ["seed", "prior_dim", "uninvolved_ratio"] + [
            f"{col}_full" for col in ("runtime_delta", "sparsify_share", "nnz_delta", "rho", "loss")
        ]

    def test_single_seed_degenerates_to_session_values(self, tmp_path):
        run([
            "bench", "--seeds", "1", "--n-poses", "18", "--candidates", "4",
            "--candidate-length", "3", "--repeats", "1", "--out-dir", str(tmp_path),
        ])
        doc = json.loads((tmp_path / "bench.json").read_text())
        session = doc["sessions"][0]
        for key, value in doc["medians"].items():
            np.testing.assert_allclose(value, session[key], rtol=1e-12)


class TestBounds:
    def test_prints_and_writes_table(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = run(["bounds", "--scenario", str(TINY), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "lb_det" in text and "ub_det" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("candidate_id,j,lb_det,ub_det")
        assert len(lines) == 1 + 4

    def test_table_equals_the_session_values_and_bounds(self, tmp_path):
        # the tiny scenario's actual noise ratio is 0.25, so its swept column
        # pair is the certified topological bound of run_session
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--scenario", str(TINY), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        table = {name: [row.split(",")[k] for row in lines[1:]] for k, name in enumerate(header)}
        report = run_session(scenario_from_json(TINY.read_text()))
        for column, values in (
            ("j", report.baseline.values),
            ("lb_det", report.bound_lb_det),
            ("ub_det", report.bound_ub_det),
            ("lb_top_r0.25", report.bound_lb_top),
            ("ub_top_r0.25", report.bound_ub_top),
        ):
            assert table[column] == [f"{v:.12g}" for v in values], column


class TestEnvironmentOverrides:
    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BELIEFPLAN_OUT_DIR", str(tmp_path / "envout"))
        code = run(["solve", "--scenario", str(TINY)])
        assert code == 0
        assert (tmp_path / "envout" / "session_11.csv").exists()



class TestUsageErrors:
    def test_retired_workers_flag_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--scenario", str(TINY), "--workers", "2", "--out-dir", str(tmp_path)])
        assert exc.value.code == cli.EXIT_ERROR
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--seeds", "0", "--n-poses", "12"], "--seeds: must be at least 1"),
            (["bench", "--repeats", "0", "--n-poses", "12"], "--repeats: must be at least 1"),
            (["solve", "--scenario", str(TINY), "--repeats", "-3"], "--repeats: must be at least 1"),
            (["solve", "--scenario", str(TINY), "--ratios", "0.25,nan"], "--ratios: ratios must be finite"),
            (["bounds", "--scenario", str(TINY), "--ratios", "nan"], "--ratios: ratios must be finite"),
            (["bounds", "--scenario", str(TINY), "--ratios", "inf"], "--ratios: ratios must be finite"),
            (["solve", "--scenario", str(TINY), "--ratios", "0.25,0.25"], "--ratios: ratio 0.25 is given more than once"),
            (["bounds", "--scenario", str(TINY), "--ratios", "0.25,0.1,0.250"],
             "--ratios: ratio 0.25 is given more than once"),
            (["bounds", "--scenario", str(TINY), "--ratios", "0.25,0.2500001"],
             "--ratios: ratio 0.25 is given more than once"),
            (["solve", "--scenario", str(TINY), "--mode", "full", "--blocks", "0,1"],
             "--blocks applies only to the custom mode"),
            (["solve", "--scenario", str(TINY), "--mode", "custom"], "the custom mode needs --blocks"),
            (["bench", "--n-poses", "12", "--blocks", "0,1"], "--blocks applies only to the custom mode"),
            (["bench", "--n-poses", "12", "--modes", "uninvolved,custom"], "the custom mode needs --blocks"),
        ],
        ids=["seeds-0", "bench-repeats-0", "solve-repeats-negative", "solve-ratios-nan", "bounds-ratios-nan",
             "bounds-ratios-inf", "solve-ratios-repeated", "bounds-ratios-repeated",
             "bounds-ratios-alike-as-printed", "solve-blocks-without-custom", "solve-custom-without-blocks",
             "bench-blocks-without-custom", "bench-custom-without-blocks"],
    )
    def test_bad_count_or_ratio_exits_1_before_any_session(self, argv, message, tmp_path, capsys):
        out = ["--out", str(tmp_path / "bounds.csv")] if argv[0] == "bounds" else ["--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            run(argv + out)
        assert exc.value.code == cli.EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_help_exits_0_and_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--help"])
        assert exc.value.code == cli.EXIT_OK
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--scenario", str(TINY), "--bogus"])
        assert exc.value.code == cli.EXIT_ERROR


def _drop_candidates(doc):
    doc["candidates"] = []


def _loop_with_sqrt_info(doc):
    i, j = doc["candidates"][1]["loops"][0]
    sqrt_info = [10.0, 0, 0, 0, 10.0, 0, 0, 0, 40.0]
    doc["candidates"][1]["loops"][0] = {"i": i, "j": j, "sqrt_info": sqrt_info}


def _schema_2(doc):
    """The file as schema 2 wrote it: every factor but the anchor listed
    with its kind."""
    n = len(doc["poses"])
    doc["schema_version"] = 2
    doc["factors"] = [["odom", k - 1, k] for k in range(1, n)] + [["loop", i, j] for i, j in doc.pop("loops")]
    for cand in doc["candidates"]:
        new = range(n, n + len(cand["new_poses"]))
        cand["factors"] = [["odom", k - 1, k] for k in new] + [["loop", i, j] for i, j in cand.pop("loops")]


def _pose_with_id(doc):
    x, y, theta = doc["poses"][3]
    doc["poses"][3] = {"id": 2, "x": x, "y": y, "theta": theta}


def _value_id(value: float, axis: int) -> str:
    return f"{value:g}".replace("e+", "e") + ("-y" if axis else "")


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["poses"][3].append(99),
            _pose_with_id,
            lambda doc: doc.update(schema_version=99),
            _drop_candidates,
            _loop_with_sqrt_info,
            lambda doc: doc["candidates"][2]["new_poses"].pop(),
            lambda doc: doc["config"].update(n_prior_poses=99),
            lambda doc: doc["config"].update(n_candidates=1),
            lambda doc: doc["config"].update(candidate_length=7),
            lambda doc: doc["config"].update(candidate_length=10**12),
            lambda doc: doc.update(schema_version=1),
            lambda doc: doc.update(seed=1.7),
            lambda doc: doc["loops"][0].__setitem__(1, True),
            lambda doc: doc["loops"][0].__setitem__(0, 2.0),
            lambda doc: doc["loops"].append(["odom", 0, 1]),
            lambda doc: doc["candidates"][0]["loops"].append([3]),
            lambda doc: doc["candidates"][0].update(loops={"i": 3, "j": 17}),
            _schema_2,
            lambda doc: doc["candidates"][0].update(id=0),
            KeyTwice("seed", 12),
            KeyTwice("world_extent", 1.0),
        ],
        ids=["pose-id-out-of-range", "pose-id-repeated", "schema-version", "no-candidates", "sqrt-info",
             "new-pose-id-gap", "config-n-prior-poses", "config-n-candidates", "config-candidate-length",
             "config-candidate-length-huge", "schema-1", "float-seed", "bool-id", "float-id", "loop-with-kind",
             "loop-not-a-pair", "loops-not-a-list", "schema-2", "unknown-key", "dup-key-seed", "dup-key-config"],
    )
    def test_bad_scenario_is_a_typed_error_and_exits_1(self, mutate, tmp_path, capsys):
        doc = json.loads(TINY.read_text())
        text = malformed_text(mutate, doc)
        with pytest.raises(BeliefPlanError):
            scenario_from_json(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["solve", "--scenario", str(bad), "--out-dir", str(tmp_path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("where, row, error, message", [
        ("the loops", [3, 3], InvalidScenario, "loop [3, 3] of the loops joins pose 3 to itself"),
        ("the loops of candidate 0", [16, 16], InvalidScenario,
         "loop [16, 16] of the loops of candidate 0 joins pose 16 to itself"),
        ("the loops", [1, 21], LayoutMismatch, "loop [1, 21] of the loops references unknown pose 21"),
        # pose 16 is the first new pose: the prior's loops cannot name it
        ("the loops", [1, 16], LayoutMismatch, "loop [1, 16] of the loops references unknown pose 16"),
        ("the loops", [-1, 3], LayoutMismatch, "loop [-1, 3] of the loops references unknown pose -1"),
        ("the loops of candidate 0", [2, 19], LayoutMismatch,
         "loop [2, 19] of the loops of candidate 0 references unknown pose 19"),
        # beyond int64, and still a pose the file does not have
        ("the loops", [2**70, 3], LayoutMismatch,
         "loop [1180591620717411303424, 3] of the loops references unknown pose 1180591620717411303424"),
        ("the loops of candidate 0", [3, -2**64], LayoutMismatch,
         "loop [3, -18446744073709551616] of the loops of candidate 0 references unknown pose -18446744073709551616"),
    ], ids=["self-join", "self-join-in-candidate", "beyond-the-poses", "new-pose-in-the-prior", "negative-id",
            "beyond-the-candidate-poses", "beyond-int64", "below-int64-in-candidate"])
    def test_bad_loop_is_refused_with_its_message(self, where, row, error, message, tmp_path, capsys):
        # the tiny scenario has 16 poses and 3 new poses per candidate
        doc = copy.deepcopy(TINY_DOC)
        (doc["loops"] if where == "the loops" else doc["candidates"][0]["loops"]).append(row)
        text = json.dumps(doc)
        with pytest.raises(BeliefPlanError) as refused:
            scenario_from_json(text)
        assert (type(refused.value), str(refused.value)) == (error, message)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["solve", "--scenario", str(bad), "--out-dir", str(tmp_path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_schema_1_and_2_files_are_refused_naming_their_version(self):
        doc = copy.deepcopy(TINY_DOC)
        _schema_2(doc)
        with pytest.raises(InvalidScenario, match="^scenario schema_version 2 is not 3$"):
            scenario_from_json(json.dumps(doc))
        poses = [{"id": k, "x": x, "y": y, "theta": t} for k, (x, y, t) in enumerate(doc["poses"])]
        doc.update(schema_version=1, poses=poses)
        with pytest.raises(InvalidScenario, match="^scenario schema_version 1 is not 3$"):
            scenario_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where, pose, axis, value", [
        pytest.param(where, 1, axis, value, id=f"{_value_id(value, axis)}-{where}")
        for axis in (0, 1)
        for value in (float("nan"), float("inf"), float("-inf"), 1e154, -1e154, 1e160, -1e160, 1e200, -1e200,
                      1e308, -1e308)
        for where in ("the poses", "the new poses of candidate 1")
    ] + [
        # just below the entry refusal: the prior information overflows or is
        # not positive definite at pose 2 (pose 1 at x = 1e152 loads and solves)
        pytest.param("the poses", 2, axis, value, id=f"{_value_id(value, axis)}-pose 2-the poses")
        for axis in (0, 1)
        for value in (1e140, -1e140, 1e152, -1e152, 1e153, -1e153)
    ])
    def test_non_finite_or_huge_pose_is_a_typed_error_without_warnings(self, where, pose, axis, value, tmp_path,
                                                                       capsys):
        # json writes NaN, Infinity and -Infinity, and its parser reads them back;
        # a finite coordinate is refused by name when a whitened entry or a lever
        # mass overflows when squared, or the prior information overflows or is
        # not positive definite; a warning would be an error here, and escape ``main``
        doc = copy.deepcopy(TINY_DOC)
        rows = doc["poses"] if where == "the poses" else doc["candidates"][1]["new_poses"]
        rows[pose][axis] = value
        text = json.dumps(doc)
        with pytest.raises(InvalidScenario, match=where) as refused:
            scenario_from_json(text)
        named = f"pose {pose} of {where}" if math.isfinite(value) else where
        assert named in str(refused.value)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["solve", "--scenario", str(bad), "--out-dir", str(tmp_path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Warning" not in err

    @pytest.mark.parametrize("value", [1e140, 1e153])
    def test_new_pose_without_support_is_named_at_evaluation(self, value, tmp_path, capsys):
        # the file loads; the update then leaves an appended variable without
        # support, and the session names that variable's pose, not its index only
        doc = copy.deepcopy(TINY_DOC)
        doc["candidates"][0]["new_poses"][0][0] = value
        text = json.dumps(doc)
        named = "appended variable 55 has no supporting row (pivot at or below 1e-12): " \
                "the y of pose 2 of the new poses of candidate 0"
        with pytest.raises(EvaluationError) as failed:
            run_session(scenario_from_json(text))
        assert failed.value.candidate_id == 0 and str(failed.value.cause) == named
        assert isinstance(failed.value.cause, RankDeficientAugmentation) and failed.value.cause.index == 55
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["solve", "--scenario", str(bad), "--out-dir", str(tmp_path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: objective evaluation failed for candidate 0: {named}\n"

    def test_noise_std_whose_weight_overflows_is_refused_naming_the_field(self):
        doc = copy.deepcopy(TINY_DOC)
        doc["config"]["angular_std"] = 1e-160
        with pytest.raises(InvalidScenario, match="angular_std is so small"):
            scenario_from_json(json.dumps(doc))

    def test_overflowing_lever_mass_is_refused_by_name(self):
        # with a wide position noise the whitened rows stay finite, but the
        # squared lever arms of the loop closure from prior pose 14 overflow
        doc = copy.deepcopy(TINY_DOC)
        doc["config"]["position_std"] = 100.0
        doc["candidates"][0]["new_poses"][0][0] = 1e156
        with pytest.raises(InvalidScenario, match="lever arms of the factors framed at pose 14 of the poses overflow"):
            scenario_from_json(json.dumps(doc))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mutated_scenario_fails_typed_and_exits_without_traceback(self, data):
        text = json.dumps(mutate_json(data, copy.deepcopy(TINY_DOC)))
        try:
            scenario_from_json(text)
            loaded = True
        except (BeliefPlanError, ValueError):
            loaded = False
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "mutated.json"
            path.write_text(text)
            # an exception escaping main would be a traceback
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(["bounds", "--scenario", str(path)])
        if not loaded:
            assert code == cli.EXIT_ERROR
            assert err.getvalue().startswith("error: ")
        else:
            assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_GUARANTEE_VIOLATED)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half of the command's start-up time
    probe = "import sys, beliefplan.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
