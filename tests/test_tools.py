"""The benchmark record tool: its gate (which runs and dims it names as
failing) and the source line count it records."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_session.py"
_spec = importlib.util.spec_from_file_location("bench_session", TOOL)
bench_session = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_session)


def _run(workload, seed, side, correct):
    return {"workload": workload, "seed": seed, "side": side, "final_json_line": {"correct": correct}}


def _dim(dim, side, uninvolved=0.05, full=0.001, ordering=True, margin=1.3):
    return {"dim": dim, "side": side, "criterion_11_share_uninvolved": uninvolved,
            "criterion_11_share_full": full, "criterion_11_ordering": ordering,
            "criterion_11_ordering_margin": margin}


def test_a_clean_record_has_no_failures():
    runs = [_run("plan-1k", 1, "parent", True), _run("plan-1k", 1, "change", True)]
    assert bench_session.failures(runs, [_dim(1020, "parent"), _dim(1020, "change")]) == []


def test_each_failure_is_named():
    runs = [_run("plan-1k", 3, "change", False), _run("batch-small", 4, "parent", True),
            {"workload": "batch-small", "seed": 5, "side": "parent", "final_json_line": {"metrics": {}}}]
    dims = [
        _dim(1020, "change"),
        _dim(3000, "change", uninvolved=0.11, ordering=False, margin=1.004),
        _dim(9000, "change", full=0.2, ordering=False, margin=0.97),
        # the parent side is measured, not gated
        _dim(9000, "parent", uninvolved=0.5, ordering=False),
    ]
    got = bench_session.failures(runs, dims)
    assert got == [
        "plan-1k seed 3 change: the run's final line is not correct",
        "batch-small seed 5 parent: the run's final line is not correct",
        "dim 3000: criterion 11, uninvolved sparsification is 11.0% of the original decision time "
        "(parent not measured, gate 10%)",
        # a median margin at or above 1 when one session's totals were not ordered
        "dim 3000: criterion 11, decision totals not ordered baseline >= uninvolved >= full "
        "(uninvolved/full margin 1.00, parent not measured)",
        "dim 9000: criterion 11, full sparsification is 20.0% of the original decision time (parent 0.1%, gate 10%)",
        "dim 9000: criterion 11, decision totals not ordered baseline >= uninvolved >= full "
        "(uninvolved/full margin 0.97, parent 1.30)",
    ]


def test_the_gate_is_criterion_11s_ten_percent():
    assert bench_session.CRITERION_11_SHARE == 0.10
    assert bench_session.failures([], [_dim(1020, "change", uninvolved=0.10, full=0.10)]) == []


def test_a_failed_session_is_recorded_named_and_kept_out_of_the_medians(tmp_path):
    # a checkout whose package cannot run a session: the row records why
    (tmp_path / "src" / "beliefplan").mkdir(parents=True)
    (tmp_path / "src" / "beliefplan" / "__init__.py").write_text("raise SystemExit('no package here')\n")
    row = bench_session.session_row(tmp_path, 1020)
    assert row == {"dim": 1020, "exit_code": 1, "stderr_tail": ["no package here"]}
    good = dict(_dim(1020, "change"), run=1)
    rows = [dict(row, side="change", run=2), good]
    dims = bench_session.dims_summary(rows)
    assert [(d["dim"], d["side"], d["n"]) for d in dims] == [(1020, "change", 1)]
    assert bench_session.failures([], dims, rows) == ["dim 1020 run 2 change: the session exited 1: no package here"]


def test_a_session_row_times_the_load_beside_the_file_io():
    # a small dim of this checkout, in a fresh process as the record runs it
    row = bench_session.session_row(bench_session.ROOT, 150)
    assert row["dim"] == 150 and "exit_code" not in row
    assert 0 <= row["scenario_from_json_cpu_s"] <= row["scenario_io_cpu_s"]
    # the ordering's margin: the uninvolved total over the full total
    assert row["criterion_11_ordering_margin"] > 0
    summary, = bench_session.dims_summary([dict(row, side="change", run=1)])
    assert summary["scenario_from_json_cpu_s"] == row["scenario_from_json_cpu_s"]


def test_src_loc_counts_the_physical_lines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "beliefplan"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nX = 1\n')
    (package / "b.py").write_text("def f():\n    return 2  # no final newline")
    (package / "empty.py").write_text("")
    # neither a module of the package itself nor Python
    (package / "sub" / "c.py").write_text("Y = 3\n")
    (package / "notes.txt").write_text("one\ntwo\n")
    (tmp_path / "tools.py").write_text("Z = 4\n")
    # as ``cat src/beliefplan/*.py | wc -l`` counts them: newline characters
    assert bench_session.src_loc(tmp_path) == 3 + 1
