"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Recorder  # noqa: E402


@functools.lru_cache(maxsize=None)
def _run(seed: int, trace: int, corrupt: bool = False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + (["--corrupt"] if corrupt else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def _declared(kind: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_every_declared_metric_is_emitted_with_its_unit():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, _, result = _run(1, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == _declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_value_trips_the_gate():
    code, lines, result = _run(1, 0, corrupt=True)
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"] >= 2
    share = [float(ln.split()[1]) for ln in lines if ln.startswith("failed_share ")]
    assert share == [1.0]
    assert result["metrics"]["passed_share"]["value"] == 0.0


def test_seed_changes_inputs_but_not_the_metric_set():
    def inputs(lines):
        return next(ln for ln in lines if ln.startswith("# inputs sha256"))

    _, lines_1, result_1 = _run(1, 0)
    _, lines_2, result_2 = _run(2, 0)
    assert inputs(lines_1) != inputs(lines_2)
    assert set(result_1["metrics"]) == set(result_2["metrics"])
    # a rigid motion of the world leaves the objective values unchanged
    for name in ("full_rho", "loss_bound_top"):
        a, b = result_1["metrics"][name]["value"], result_2["metrics"][name]["value"]
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def _spin(seconds: float):
    """Burn ``seconds`` of CPU time; spans and parts run on CPU time."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_self_time_excludes_child_spans():
    rec = Recorder(True)
    rec.start_cycle(0)
    with rec.part("step"):
        with rec.span("outer"):
            _spin(0.02)
            with rec.span("inner"):
                _spin(0.03)
        time.sleep(0.05)  # off the CPU: in the wall time only
    selfs = dict(zip((s[0] for s in rec.spans), rec.self_seconds()))
    assert 0.02 <= selfs["outer"] < 0.03 + 0.02
    assert selfs["inner"] >= 0.03
    assert selfs["bench.step"] < 0.01
    assert 0.05 <= rec.cpu["step"] < 0.09
    assert rec.wall["step"] >= 0.1
    assert rec.parts["step"] > 0  # the CPU time at the probe's reference speed
