"""Add a record to ``BENCH_session.json``: benchmark runs of a parent
checkout and of this one, and one-shot planning sessions at prior dims
1020, 3000 and 9000.

    python3 tools/bench_session.py --parent DIR --parent-commit HASH [--change TEXT]

``DIR`` is a checkout of the commit to compare against, for example made
with ``git archive HASH | tar -x -C DIR``.  For each seed and workload both
sides run ``perfbench/run.py`` one after the other, the parent first on odd
seeds; the final JSON line of every run is kept, with the medians,
quartiles and pairs of every metric.  Then each side runs five one-shot
sessions per dim, each in a fresh process so that its peak RSS is
the session's own: ``generate``, ``run_session`` with the default modes and
ratios and three timing repeats (phase medians, so that one slow repeat does
not decide the baseline >= uninvolved >= full ordering), then
``candidate_bounds``, then ``scenario_to_json`` and ``scenario_from_json``
of the scenario (the file's bytes, and the CPU seconds of both together,
``scenario_io_cpu_s``, and of the load alone, ``scenario_from_json_cpu_s``,
which parses the file, checks it, factors the prior and whitens the
candidates; peak RSS is read before them).  Around ``run_session`` each
session also reads ``resource.getrusage``: ``session_minor_faults`` is the
number of minor page faults the call took (pages the allocator handed back
to the system and touched again count here) and ``session_system_cpu_s``
its system CPU seconds.  The criterion-11 share is the sparsification time over the
original decision time, both ``run_session``'s own figures;
``criterion_11_ordering`` says whether the decision totals are ordered
baseline >= uninvolved >= full, and ``criterion_11_ordering_margin`` is the
uninvolved total over the full total, which that ordering needs at 1 or
above.  Seeds 1-10 at
the benchmark's 50 s run length and five sessions per dim take about 50
minutes on a 2-vCPU machine.  The record also holds each side's
``src_loc``, the physical lines of ``src/beliefplan/*.py`` (what
``cat src/beliefplan/*.py | wc -l`` prints), and the change is printed on
stderr.  Records of other parent commits already in the file are kept; a
record of the same parent commit is replaced.

A session that exits non-zero is recorded as its dim, exit code and the
tail of its stderr, and left out of the dim's medians.  The exit status is
1, after the record is written, when a benchmark run's final line is not
``correct``, when a session exits non-zero, or when this change breaks
criterion 11 at a dim: a sparsification share above 10% of the original
decision time (medians of the sessions), or decision totals not ordered
baseline >= uninvolved >= full in every session; each failure is named on
stderr, a share beside the parent side's share at that dim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_session.json"
WORKLOADS = ("plan-1k", "batch-small")
SEEDS = tuple(range(1, 11))
SECONDS = 50  # run_seconds of BENCHMARK.json
DIMS = (1020, 3000, 9000)
RUNS = 5  # one-shot sessions per side and dim (with three, the dim-9000 verdict flipped)
STDERR_LINES = 5  # of a failed session, kept in its row
CRITERION_11_SHARE = 0.10  # sparsification over the original decision time

SESSION = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from beliefplan.scenario import (DEFAULT_NOISE_RATIOS, ScenarioConfig, candidate_bounds, generate, run_session,
                                 scenario_from_json, scenario_to_json)
dim = int(sys.argv[2])
t = time.process_time()
sc = generate(ScenarioConfig(seed=1, n_prior_poses=dim // 3, n_candidates=16, candidate_length=5))
generate_s = time.process_time() - t
before = resource.getrusage(resource.RUSAGE_SELF)
t, w = time.process_time(), time.perf_counter()
rep = run_session(sc, timing_repeats=3)
session_s, session_wall = time.process_time() - t, time.perf_counter() - w
after = resource.getrusage(resource.RUSAGE_SELF)
t = time.process_time()
candidate_bounds(sc, DEFAULT_NOISE_RATIOS)
bounds_s = time.process_time() - t
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # the session's own, before the file I/O
t = time.process_time()
text = scenario_to_json(sc)
loading = time.process_time()
scenario_from_json(text)
done = time.process_time()
scenario_io_s, from_json_s = done - t, done - loading
base = rep.baseline.total_seconds
unin, full = rep.mode("uninvolved"), rep.mode("full")
print(json.dumps({
    "dim": sc.prior.dim,
    "generate_cpu_s": round(generate_s, 3),
    "session_cpu_s": round(session_s, 3),
    "session_wall_s": round(session_wall, 3),
    "session_minor_faults": after.ru_minflt - before.ru_minflt,
    "session_system_cpu_s": round(after.ru_stime - before.ru_stime, 3),
    "original_eval_s": round(base, 3),
    "uninvolved_sparsify_s": round(unin.sparsify_seconds, 4),
    "uninvolved_eval_s": round(unin.evaluate_seconds, 3),
    "full_sparsify_s": round(full.sparsify_seconds, 4),
    "full_eval_s": round(full.evaluate_seconds, 3),
    "criterion_11_share_uninvolved": round(unin.sparsify_seconds / base, 4),
    "criterion_11_share_full": round(full.sparsify_seconds / base, 4),
    "criterion_11_ordering": bool(full.total_seconds <= unin.total_seconds <= base),
    "criterion_11_ordering_margin": round(unin.total_seconds / full.total_seconds, 4),
    "candidate_bounds_cpu_s": round(bounds_s, 3),
    "scenario_json_bytes": len(text.encode()),
    "scenario_io_cpu_s": round(scenario_io_s, 4),
    "scenario_from_json_cpu_s": round(from_json_s, 4),
    "peak_rss_mb": round(peak_rss_mb, 1),
}))
"""


def _env() -> dict:
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")


def _last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}


def bench_run(side_dir: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=side_dir, env=_env(), capture_output=True, text=True)
    return _last_json(done.stdout)


def session_row(side_dir: Path, dim: int) -> dict:
    """The session's final JSON line, or, when it exits non-zero, its exit
    code and the last lines of its stderr."""
    cmd = [sys.executable, "-c", SESSION, str(side_dir / "src"), str(dim)]
    done = subprocess.run(cmd, env=_env(), capture_output=True, text=True)
    if done.returncode:
        return {"dim": dim, "exit_code": done.returncode, "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
    return _last_json(done.stdout)


def src_loc(side_dir: Path) -> int:
    """Physical lines of the side's ``src/beliefplan/*.py``."""
    return sum(path.read_bytes().count(b"\n") for path in (side_dir / "src" / "beliefplan").glob("*.py"))


def _spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def bench_summary(runs: list) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_seed: dict = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["final_json_line"].get("metrics", {})
        pairs = [(s["parent"], s["change"]) for _, s in sorted(by_seed.items()) if len(s) == 2]
        out[workload] = {}
        for metric in pairs[0][0] if pairs else ():
            values = [(p[metric]["value"], c[metric]["value"]) for p, c in pairs if metric in p and metric in c]
            parent = _spread([p for p, _ in values])
            change = _spread([c for _, c in values])
            out[workload][metric] = {
                "parent": parent,
                "change": change,
                "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
                "pairs": [list(v) for v in values],
            }
    return out


def dims_summary(rows: list) -> list:
    out = []
    for dim in sorted({r["dim"] for r in rows}):
        for side in ("parent", "change"):
            mine = [r for r in rows if r["dim"] == dim and r["side"] == side and "exit_code" not in r]
            if not mine:
                continue
            row = {"dim": dim, "side": side, "n": len(mine)}
            for key, value in mine[0].items():
                if key in ("dim", "side", "run"):
                    continue
                if isinstance(value, bool):
                    row[key] = all(r[key] for r in mine)
                else:
                    row[key] = statistics.median(r[key] for r in mine)
            out.append(row)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the commit to compare against")
    p.add_argument("--parent-commit", required=True, help="its commit hash, which keys the record")
    p.add_argument("--change", default="", help="one line naming the change")
    args = p.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        p.error(f"{args.parent} is not a checkout with perfbench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    loc = {side: src_loc(path) for side, path in sides.items()}
    print(f"src LOC {loc['parent']} -> {loc['change']} ({loc['change'] - loc['parent']:+d})", file=sys.stderr)
    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for k, side in enumerate(order):
                line = bench_run(sides[side], workload, seed)
                runs.append({"workload": workload, "seed": seed, "side": side, "first_in_pair": k == 0,
                             "final_json_line": line})
                print(f"{workload} seed {seed} {side}: correct={line.get('correct')}", file=sys.stderr)
    rows = []
    for dim in DIMS:
        for run in range(1, RUNS + 1):
            for side in ("parent", "change"):
                rows.append(dict(session_row(sides[side], dim), side=side, run=run))
                print(f"dim {dim} run {run} {side}: {rows[-1]}", file=sys.stderr)
    record = {
        "what": "Planning-session benchmark runs of the parent commit and of this change, and one-shot "
                "sessions at prior dims " + ", ".join(map(str, DIMS)) + ".",
        "parent_commit": args.parent_commit,
        "change": args.change,
        "command": f"python3 tools/bench_session.py --parent <checkout of {args.parent_commit}> "
                   f"--parent-commit {args.parent_commit}",
        "machine": f"{os.cpu_count()}-CPU machine, Python {sys.version.split()[0]}, one BLAS thread",
        "src_loc": loc,
        "benchmark": {
            "command": "python3 perfbench/run.py --workload {plan-1k,batch-small} --seed S "
                       f"--seconds {SECONDS} --trace 0",
            "seeds": list(SEEDS),
            "order": "parent and change alternate; parent runs first on odd seeds",
            "units": "timings are CPU seconds scaled to the benchmark's reference speed (perfbench/README.md)",
            "summary": bench_summary(runs),
            "runs": runs,
        },
        "dims": {
            "how": "ScenarioConfig(seed=1, n_prior_poses=dim/3, n_candidates=16, candidate_length=5); generate, "
                   "run_session with default modes and ratios (timing_repeats=3), then candidate_bounds at the "
                   "default ratios, then scenario_to_json + scenario_from_json of the scenario (scenario_io_cpu_s, "
                   "of which scenario_from_json_cpu_s is the load alone, and the file's scenario_json_bytes; "
                   "peak_rss_mb is read before them), in a fresh process; "
                   "session_minor_faults and session_system_cpu_s are getrusage differences around run_session; "
                   "CPU seconds except the run_session phase times, which are its own perf_counter figures; "
                   "criterion_11_share = sparsify_seconds / original decision time; "
                   "criterion_11_ordering_margin = uninvolved total / full total (sparsify + evaluate); "
                   f"{RUNS} runs per side and dim, summary = medians",
            "summary": dims_summary(rows),
            "runs": rows,
        },
    }
    OUT.write_text(json.dumps(merged(OUT, record), indent=1) + "\n")
    problems = failures(runs, record["dims"]["summary"], rows)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def failures(runs: list, dims: list, sessions: list = ()) -> list:
    """What the record shows failing: a benchmark run whose final line is not
    ``correct``, a one-shot session (of either side) that exited non-zero,
    and a dim at which this change breaks criterion 11 (either
    sparsification share above ``CRITERION_11_SHARE`` of the original
    decision time, or totals not ordered baseline >= uninvolved >= full).
    A share above the gate is named beside the parent side's share at that
    dim, which is measured, not gated."""
    out = [f"{r['workload']} seed {r['seed']} {r['side']}: the run's final line is not correct"
           for r in runs if r["final_json_line"].get("correct") is not True]
    out += [f"dim {r['dim']} run {r['run']} {r['side']}: the session exited {r['exit_code']}: "
            + (r["stderr_tail"][-1] if r["stderr_tail"] else "no stderr")
            for r in sessions if "exit_code" in r]
    parents = {row["dim"]: row for row in dims if row["side"] == "parent"}
    for row in dims:
        if row["side"] != "change":
            continue
        for mode in ("uninvolved", "full"):
            key = f"criterion_11_share_{mode}"
            share = row[key]
            if share > CRITERION_11_SHARE:
                parent = parents.get(row["dim"])
                was = f"parent {parent[key]:.1%}" if parent else "parent not measured"
                out.append(f"dim {row['dim']}: criterion 11, {mode} sparsification is {share:.1%} of the original "
                           f"decision time ({was}, gate {CRITERION_11_SHARE:.0%})")
        if not row["criterion_11_ordering"]:
            out.append(f"dim {row['dim']}: criterion 11, decision totals not ordered baseline >= uninvolved >= full")
    return out


def merged(out: Path, record: dict) -> dict:
    """The records already in ``out`` (a lone record counts as one) with
    ``record`` added, replacing one of the same parent commit."""
    doc = json.loads(out.read_text()) if out.is_file() else {}
    records = doc.get("records", [doc] if "benchmark" in doc else [])
    records = [r for r in records if r.get("parent_commit") != record["parent_commit"]]
    return {"what": "One record per change: its parent's and its own benchmark runs and one-shot sessions, "
                    "oldest first.", "records": records + [record]}


if __name__ == "__main__":
    sys.exit(main())
