"""Planning-session benchmark for beliefplan.

    python3 perfbench/run.py --workload plan-1k --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
The load is a closed loop with one client: a cycle runs each session of the
workload (generate, save and reload, run_session, the same decision step by
step, bounds, commit) and the next cycle starts when it ends.  One small
warm-up cycle runs first and is not timed.  Cycles start until ``--seconds``
have passed.  Each timing is the median over the run's cycles, per session,
summed over the cycle's sessions.  Timings are CPU seconds scaled to a
reference speed by a probe run around every timed step, on one BLAS
thread (see tracing.py and README.md).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced cycles, then probes the layers, and prints every
per-layer metric, the tracing overhead and the layer-to-metric map.  The
last line of standard output is one JSON object; the exit code is 1 when
any check failed, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass
class Cycle:
    index: int
    traced: bool
    parts: list  # per session: benchmark part -> reference-speed seconds
    cpu: list  # per session: benchmark part -> CPU seconds
    wall: list  # per session: benchmark part -> wall seconds
    sessions: list  # Summary, or None where the session raised


def _parse(argv):
    p = argparse.ArgumentParser(description="beliefplan planning-session benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="add an error to one uninvolved value of every session, to show the gate trips")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> tuple:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, fn()
    return vendor, "unknown"


def provenance() -> dict:
    import numpy as np
    import scipy

    vendor, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _attempt(cy, inp, rec, args, keep, errors):
    try:
        return cy.plan_session(inp, rec, corrupt=args.corrupt, keep=keep)
    except Exception as exc:  # a session that raises is a failed one, with its traceback kept
        errors.append(cy.describe_failure(exc))
        return None


def measure(cy, wl, args, rec, workdir: Path):
    errors: list = []
    inputs = cy.make_inputs(wl.configs, args.seed, workdir)
    warm = cy.make_inputs((cy.WARMUP,), args.seed, workdir, first_index=len(inputs))[0]
    rec.start_cycle("warmup")
    warm_summary = _attempt(cy, warm, rec, args, False, errors)
    rec.take_parts()

    cycles = []
    min_cycles = 2 if args.trace else 1  # the traced run needs an untraced and a traced cycle
    start = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - start < args.seconds:
        k = len(cycles)
        rec.enabled = bool(args.trace) and k % 2 == 1
        rec.start_cycle(k)
        sessions, times = [], []
        for inp in inputs:
            sessions.append(_attempt(cy, inp, rec, args, rec.enabled, errors))
            times.append(rec.take_parts())
        parts, cpu, wall = (list(t) for t in zip(*times))
        cycles.append(Cycle(k, rec.enabled, parts, cpu, wall, sessions))
    rec.enabled = False
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the dense oracle allocates n x n matrices, so it runs after the peak is read
    if warm_summary is not None:
        cy.oracle_problems(warm, [warm_summary], None)
    for i, inp in enumerate(inputs):
        done = [c.sessions[i] for c in cycles if c.sessions[i] is not None]
        if done:
            cy.oracle_problems(inp, done, wl.oracle)

    if args.trace:
        traced = _complete(cycles, traced=True)
        if traced:
            rec.enabled = True
            rec.start_cycle("probe")
            last = traced[-1]
            for inp, summary in zip(inputs, last.sessions):
                try:
                    summary.problems += cy.probe(rec, inp, summary, workdir)
                except Exception as exc:  # recorded against the session it probes
                    summary.problems.append(cy.describe_failure(exc))
            try:
                last.sessions[0].problems += cy.probe_cli(rec, inputs[0], SRC, workdir)
            except Exception as exc:  # includes a timed-out subprocess
                last.sessions[0].problems.append(cy.describe_failure(exc))
            rec.enabled = False

    sessions = [warm_summary] + [s for c in cycles for s in c.sessions]
    failed = sum(1 for s in sessions if s is None or s.problems)
    for s in sessions:
        if s is not None:
            errors.extend(s.problems)
    return inputs, cycles, sessions, failed, errors, peak_mb


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _complete(cycles, traced=None) -> list:
    """Cycles in which no session raised, optionally only (un)traced ones."""
    return [c for c in cycles if all(c.sessions) and traced in (None, c.traced)]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _step(cycles, parts, stat=statistics.median, clock="parts"):
    """``stat`` over cycles of each session's time in ``parts``, summed over
    the sessions; None without a complete cycle.  ``clock`` is "parts" for
    reference-speed time, "cpu" or "wall" for raw CPU or wall time."""
    if not cycles:
        return None
    n = len(cycles[0].parts)
    return sum(stat([sum(getattr(c, clock)[i].get(p, 0.0) for p in parts) for c in cycles])
               for i in range(n))


# the metric is the median; the others are printed for comparison
STATS = {"median": (statistics.median, "parts"), "min": (min, "parts"),
         "cpu_median": (statistics.median, "cpu"), "wall_median": (statistics.median, "wall")}


def end_to_end(layers, cycles, sessions, failed, peak_mb, n_sessions) -> tuple:
    """(metrics, alternatives): each metric as (value, unit), and every
    timing under each of ``STATS``, for comparison."""
    good = _complete(cycles)
    out, alt = {}, {}
    for name, unit, parts in layers.END_TO_END:
        alt[name] = {k: _step(good, parts, stat, clock) for k, (stat, clock) in STATS.items()}
        out[name] = (alt[name]["median"], unit)
    all_parts = [p for _, _, parts in layers.END_TO_END for p in parts]
    alt["sessions_per_s"] = {}
    for k, (stat, clock) in STATS.items():
        total = _step(good, all_parts, stat, clock)
        alt["sessions_per_s"][k] = n_sessions / total if total else None
    done = [s for c in cycles for s in c.sessions if s is not None]
    out["sessions_per_s"] = (alt["sessions_per_s"]["median"], "1/s")
    out["peak_rss_mb"] = (peak_mb, "MB")
    out["passed_share"] = ((len(sessions) - failed) / len(sessions), "ratio")
    out["full_rho"] = (_median(s.full_rho for s in done), "ratio")
    out["loss_bound_top"] = (_median(s.loss_bound_top for s in done), "nats")
    return out, alt


def _top_parts(rec) -> list:
    """The benchmark part each span sits under (None for probe roots)."""
    top = []
    for name, tag, start, end, parent, cycle in rec.spans:
        if parent < 0:
            top.append(name[len("bench."):] if name.startswith("bench.") else None)
        else:
            top.append(top[parent])
    return top


def per_layer(layers, rec, traced_ids) -> dict:
    cyc = rec.totals(traced_ids)
    probe = rec.totals({"probe"})

    def summed(table, keys, cycle):
        total = 0.0
        for (name, tag), per_cycle in table.items():
            if any(name == k and (t == layers.ANY or t == tag) for k, t in keys):
                total += per_cycle.get(cycle, 0.0)
        return total

    counters = {}
    for name, value, cycle in rec.counters:
        per = counters.setdefault(name, {})
        if name in layers.MAX_COUNTERS:
            per[cycle] = max(per.get(cycle, value), value)
        else:
            per[cycle] = per.get(cycle, 0) + value

    out = {}
    for name, unit, source, keys, _ in layers.PER_LAYER:
        if source == "cycle":
            value = min((summed(cyc, keys, c) for c in traced_ids), default=None)
        elif source == "probe":
            value = summed(probe, keys, "probe")
        elif source == "probe_each":
            value = _median((s[3] - s[2]) * 1e-9 for s in rec.spans
                            if s[5] == "probe" and any(s[0] == k for k, _ in keys))
        else:
            value = _median(counters.get(keys, {}).values())
        out[name] = (value, unit)
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_roadmap_row(wl, metrics, cycles, inputs):
    """The ROADMAP "Recent" table row, with the criterion-11 share; not gated."""
    good = _complete(cycles)
    sp_unin = _step(good, ("sparsify_uninvolved",))
    sp_full = _step(good, ("sparsify_full",))
    orig = metrics["decide_original_s"][0]
    unin = metrics["decide_uninvolved_s"][0]
    full = metrics["decide_full_s"][0]
    if None in (sp_unin, sp_full, orig, unin, full):
        print("# roadmap table: no complete cycle")
        return
    poses = sorted({inp.cfg.n_prior_poses for inp in inputs})
    poses_txt = str(poses[0]) if len(poses) == 1 else f"{poses[0]}-{poses[-1]} ({len(inputs)} scenarios)"
    share = sp_unin / orig
    ordering = "holds" if orig >= unin >= full else "fails"
    print("# informational, not gated: ROADMAP 'Recent' table row and criterion 11")
    print("| workload | n_poses | dim | generate | session | original eval | uninvolved sparsify "
          "| full sparsify | criterion-11 share | baseline >= uninvolved >= full |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    print(f"| {wl.name} | {poses_txt} | {3 * poses[-1] if len(poses) == 1 else 'mixed'} "
          f"| {metrics['setup_s'][0]:.3f} s | {metrics['session_s'][0]:.3f} s | {orig:.3f} s "
          f"| {sp_unin:.4f} s ({share:.1%}) | {sp_full:.4f} s ({sp_full / orig:.2%}) "
          f"| {share:.1%} {'met (<= 10%)' if share <= 0.10 else 'MISSED (> 10%)'} | {ordering} |")


def print_trace_report(layers, rec, cycles, metrics):
    traced = _complete(cycles, traced=True)
    plain = _complete(cycles, traced=False)
    ids = {c.index for c in traced}
    top = _top_parts(rec)
    selfs = rec.self_seconds()
    layer_self = {c: {} for c in ids}
    glue = {c: {} for c in ids}
    module_self = {}
    for i, (name, tag, start, end, parent, cycle) in enumerate(rec.spans):
        module = name.split(".")[0]
        if cycle in ids and top[i] is not None:
            table = glue if module == "bench" else layer_self
            table[cycle][top[i]] = table[cycle].get(top[i], 0.0) + selfs[i]
        if module != "bench":
            key = (module, "probe" if cycle == "probe" else "cycle")
            module_self.setdefault(key, {}).setdefault(cycle, 0.0)
            module_self[key][cycle] += selfs[i]

    print(f"# traced run: {len(traced)} traced and {len(plain)} untraced cycles; "
          f"{sum(1 for s in rec.spans if s[5] in ids) // max(len(ids), 1)} spans per traced cycle")
    all_parts = [p for _, _, parts in layers.END_TO_END for p in parts]
    # at reference speed, so that a change of machine speed between the
    # traced and untraced cycles does not read as overhead
    t_total = _step(traced, all_parts, min)
    u_total = _step(plain, all_parts, min)
    if t_total is not None and u_total is not None:
        print(f"# tracing overhead (reference-speed s, fastest cycle): traced cycle {t_total:.4f} s vs "
              f"untraced {u_total:.4f} s "
              f"= {t_total - u_total:+.4f} s ({(t_total - u_total) / u_total:+.1%})")
    # spans run on raw CPU time, so the accounting compares raw CPU times
    print("# accounting per end-to-end metric (CPU s, fastest cycle): untraced | traced | layer self "
          "| benchmark glue")
    for name, unit, parts in layers.END_TO_END:
        u = _step(plain, parts, min, "cpu")
        t = _step(traced, parts, min, "cpu")
        ls = min((sum(layer_self[c].get(p, 0.0) for p in parts) for c in ids), default=None)
        gl = min((sum(glue[c].get(p, 0.0) for p in parts) for c in ids), default=None)
        print(f"#   {name:22s} {_fmt(u):>10s} | {_fmt(t):>10s} | {_fmt(ls):>10s} | {_fmt(gl):>10s}")
    print("# self time per module (s): in the timed cycle (fastest traced cycle) | in the probes")
    for module in layers.MODULES:
        in_cycle = min(module_self.get((module, "cycle"), {}).values(), default=None)
        in_probe = module_self.get((module, "probe"), {}).get("probe")
        print(f"#   {module:10s} {_fmt(in_cycle):>10s} | {_fmt(in_probe):>10s}")
    print("# per-layer metric | value | unit | source | should move")
    for name, unit, source, keys, moves in layers.PER_LAYER:
        print(f"{name:40s} {_fmt(metrics[name][0]):>12s} {unit:6s} {source:10s} {moves}")


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread, set before numpy loads.  The timings are CPU time, and
    # BLAS workers that spin while waiting for a busy core would add CPU time
    # that depends on the other tenants of the machine, not on the program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "beliefplan" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cycle as cy
    import layers
    from tracing import Recorder

    if args.workload not in cy.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(cy.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = cy.WORKLOADS[args.workload]
    prov = provenance()
    print("# provenance " + json.dumps(prov))
    print(f"# workload {wl.name}: {wl.why}; seed {args.seed}; closed loop, 1 client; "
          f"{len(wl.configs)} session(s) per cycle")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    rec = Recorder(False)
    try:
        inputs, cycles, sessions, failed, errors, peak_mb = measure(cy, wl, args, rec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = "".join(inp.digest or "-" for inp in inputs)
    print(f"# inputs sha256 prefix {digest[:16]}; {len(cycles)} cycles measured; "
          f"{len(sessions)} sessions attempted (warm-up included), {failed} failed")
    for message in sorted(set(errors)):
        print(f"# FAILED ({errors.count(message)}x): {message}", file=sys.stderr)
        print(f"# FAILED ({errors.count(message)}x): {message.splitlines()[-1]}")

    n_sessions = len(wl.configs)
    if args.trace:
        traced_ids = {c.index for c in _complete(cycles, traced=True)}
        metrics = per_layer(layers, rec, traced_ids)
        print_trace_report(layers, rec, cycles, metrics)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        rec.write(trace_path, header={"provenance": prov, "workload": wl.name, "seed": args.seed})
        print(f"# spans and counters written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, alt = end_to_end(layers, cycles, sessions, failed, peak_mb, n_sessions)
        print(f"# end-to-end metrics over {len(cycles)} cycles (too few for tail percentiles); timings are "
              "the median over cycles, per session, at reference speed; other statistics follow")
        print(f"failed_share {failed / len(sessions):.6g} ratio")
        for name, (value, unit) in metrics.items():
            others = "".join(f" {k}={_fmt(v)}" for k, v in alt.get(name, {}).items())
            print(f"{name} {_fmt(value)} {unit}" + (f"   ({others.strip()})" if others else ""))
        print_roadmap_row(wl, metrics, cycles, inputs)

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": len(sessions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
