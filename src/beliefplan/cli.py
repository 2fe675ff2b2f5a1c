"""Command-line entry point.

Subcommands:

- ``generate``: sample a scenario file from a seeded config;
- ``solve``: run one planning session on a scenario file, writing a
  per-candidate CSV and a JSON summary;
- ``bench``: run a batch of seeded sessions and aggregate medians;
- ``bounds``: evaluate objective bounds for a scenario without solving;
  it scores and bounds the candidates with the session's own calls
  (``evaluate_candidates``, ``scenario.candidate_bounds``).

Exit codes encode mathematical guarantees, not just crashes: 0 on success
(``--help`` included), 1 on usage errors (unknown or malformed options) and
on input/IO errors, 2 only when a guarantee check fails (uninvolved-mode
sparsification changed objective values beyond tolerance, or an objective
bound was violated), so CI can gate on the invariants directly.  ``solve``,
``bench`` and ``bounds`` check objective-bound containment with one helper
and one slack, ``BOUND_SLACK``.

Environment override: ``BELIEFPLAN_OUT_DIR`` (default output directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .belief import evaluate_candidates
from .errors import BeliefPlanError
from .scenario import (
    DEFAULT_NOISE_RATIOS,
    Scenario,
    ScenarioConfig,
    SessionReport,
    candidate_bounds,
    generate,
    report_to_csv,
    report_to_json,
    run_session,
    scenario_from_json,
    scenario_to_json,
)
from .sparsify import SparsificationSpec

ZERO_OFFSET_TOLERANCE = 1e-6
BOUND_SLACK = 1e-9

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GUARANTEE_VIOLATED = 2


def _add_config_flags(parser: argparse.ArgumentParser):
    d = ScenarioConfig()
    parser.add_argument("--seed", type=int, default=d.seed)
    parser.add_argument("--n-poses", type=int, default=d.n_prior_poses, help="prior trajectory length")
    parser.add_argument("--world-extent", type=float, default=d.world_extent)
    parser.add_argument("--pos-std", type=float, default=d.position_std)
    parser.add_argument("--ang-std", type=float, default=d.angular_std)
    parser.add_argument("--loop-radius", type=float, default=d.loop_closure_radius)
    parser.add_argument("--candidates", type=int, default=d.n_candidates)
    parser.add_argument("--candidate-length", type=int, default=d.candidate_length)
    parser.add_argument("--loop-window", type=int, default=d.loop_index_window,
                        help="max pose-index gap for prior loop closures")


def _config_from_args(args, seed: int | None = None) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed if seed is None else seed,
        n_prior_poses=args.n_poses,
        world_extent=args.world_extent,
        position_std=args.pos_std,
        angular_std=args.ang_std,
        loop_closure_radius=args.loop_radius,
        n_candidates=args.candidates,
        candidate_length=args.candidate_length,
        loop_index_window=args.loop_window,
    )


def _parse_ratios(text: str) -> tuple:
    ratios = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not ratios or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise argparse.ArgumentTypeError("ratios must be finite positive numbers")
    return ratios


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_blocks(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("BELIEFPLAN_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _specs_from_modes(mode_names, blocks) -> list:
    specs = []
    for name in mode_names:
        if name == "custom":
            specs.append(SparsificationSpec.custom(blocks or ()))
        else:
            specs.append(SparsificationSpec(name))
    return specs


def _load_scenario(path: str) -> Scenario:
    return scenario_from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# Guarantee checks shared by solve, bench and bounds
# ---------------------------------------------------------------------------


def _objective_bound_violations(values, top: tuple, det: tuple) -> list:
    """Names of the ``(lb, ub)`` bound families that fail to contain every
    objective value within ``BOUND_SLACK``; a NaN value or bound fails."""
    return [
        f"{name} objective bounds violated"
        for name, (lb, ub) in (("topological", top), ("determinant", det))
        if not np.all((lb - BOUND_SLACK <= values) & (values <= ub + BOUND_SLACK))
    ]


def _guarantee_violations(report: SessionReport) -> list:
    problems = []
    for res in report.modes:
        if res.label == "uninvolved":
            if res.offset_identity > ZERO_OFFSET_TOLERANCE or res.loss > ZERO_OFFSET_TOLERANCE:
                problems.append(
                    "uninvolved-mode values diverged from the original problem "
                    f"(offset {res.offset_identity:.3e}, loss {res.loss:.3e})"
                )
    problems += _objective_bound_violations(
        report.baseline.values,
        (report.bound_lb_top, report.bound_ub_top),
        (report.bound_lb_det, report.bound_ub_det),
    )
    for res in report.modes:
        fam = report.loss_bounds[res.label]
        if fam["topological"] < res.loss - BOUND_SLACK or fam["determinant"] < res.loss - BOUND_SLACK:
            problems.append(f"loss bound below actual loss in mode {res.label}")
    return problems


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    scenario = generate(_config_from_args(args))
    text = scenario_to_json(scenario)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    root_nnz, info_nnz = scenario.prior.root.nnz, scenario.prior.root.gram_nnz()
    n_loops = sum(1 for f in scenario.prior_factors if f.kind == "loop")
    print(f"wrote {out}")
    print(
        f"dim={scenario.prior.dim} poses={scenario.n_poses} loop_closures={n_loops} "
        f"root_nnz={root_nnz} info_nnz={info_nnz} candidates={len(scenario.candidates)}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    specs = _specs_from_modes(args.mode or ["uninvolved", "full"], args.blocks)
    report = run_session(
        scenario,
        modes=specs,
        noise_ratios=args.ratios,
        timing_repeats=args.repeats,
    )
    out_dir = _out_dir(args)
    stem = f"session_{scenario.config.seed}"
    (out_dir / f"{stem}.csv").write_text(report_to_csv(report))
    (out_dir / f"{stem}.json").write_text(report_to_json(report))
    print(f"wrote {out_dir / (stem + '.csv')} and {out_dir / (stem + '.json')}")

    base = report.baseline
    print(
        f"original: best={base.best_index} J={base.values[base.best_index]:.4f} "
        f"eval={base.evaluate_seconds:.3f}s root_nnz={base.root_nnz}"
    )
    for res in report.modes:
        print(
            f"{res.label}: best={res.best_index} loss={res.loss:.3e} rho={res.rho:.3f} "
            f"sparsify={res.sparsify_seconds:.3f}s eval={res.evaluate_seconds:.3f}s "
            f"root_nnz={res.root_nnz}"
        )
    problems = _guarantee_violations(report)
    for p in problems:
        print(f"GUARANTEE VIOLATED: {p}", file=sys.stderr)
    return EXIT_GUARANTEE_VIOLATED if problems else EXIT_OK


def _bench_columns(mode_names) -> list:
    cols = ["seed", "prior_dim", "uninvolved_ratio"]
    for name in mode_names:
        cols += [
            f"runtime_delta_{name}",
            f"sparsify_share_{name}",
            f"nnz_delta_{name}",
            f"rho_{name}",
            f"loss_{name}",
        ]
    return cols


def cmd_bench(args) -> int:
    mode_names = args.modes.split(",") if args.modes else ["uninvolved", "full"]
    specs = _specs_from_modes(mode_names, args.blocks)
    rows = []
    any_violation = False
    for k in range(args.seeds):
        seed = args.first_seed + k
        scenario = generate(_config_from_args(args, seed=seed))
        report = run_session(
            scenario,
            modes=specs,
            noise_ratios=args.ratios,
            timing_repeats=args.repeats,
        )
        problems = _guarantee_violations(report)
        if problems:
            any_violation = True
            for p in problems:
                print(f"GUARANTEE VIOLATED (seed {seed}): {p}", file=sys.stderr)
        base_total = report.baseline.total_seconds
        row = {
            "seed": seed,
            "prior_dim": report.prior_dim,
            "uninvolved_ratio": report.uninvolved_block_ratio,
        }
        for res in report.modes:
            row[f"runtime_delta_{res.label}"] = res.total_seconds / base_total - 1.0
            row[f"sparsify_share_{res.label}"] = (
                res.sparsify_seconds / res.total_seconds if res.total_seconds else 0.0
            )
            row[f"nnz_delta_{res.label}"] = res.root_nnz / report.baseline.root_nnz - 1.0
            row[f"rho_{res.label}"] = res.rho
            row[f"loss_{res.label}"] = res.loss
        rows.append(row)

    cols = _bench_columns([s.mode for s in specs])
    out_dir = _out_dir(args)
    csv_path = out_dir / "bench.csv"
    with csv_path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row.get(c)) for c in cols) + "\n")

    medians = {
        c: float(np.median([row[c] for row in rows]))
        for c in cols
        if c != "seed"
    }
    (out_dir / "bench.json").write_text(json.dumps({"sessions": rows, "medians": medians}, indent=1))
    print(f"wrote {csv_path} and {out_dir / 'bench.json'}")

    _print_bench_table(rows, [s.mode for s in specs], medians)
    return EXIT_GUARANTEE_VIOLATED if any_violation else EXIT_OK


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _print_bench_table(rows, mode_names, medians):
    headers = ["seed", "dim", "uninv%"]
    for name in mode_names:
        headers += [f"time {name}", f"sparx {name}", f"nnz {name}", f"rho {name}", f"loss {name}"]
    print("  ".join(f"{h:>12}" for h in headers))
    for row in rows:
        cells = [str(row["seed"]), str(row["prior_dim"]), f"{100 * row['uninvolved_ratio']:.0f}%"]
        for name in mode_names:
            cells += [
                f"{100 * row[f'runtime_delta_{name}']:+.0f}%",
                f"{100 * row[f'sparsify_share_{name}']:.1f}%",
                f"{100 * row[f'nnz_delta_{name}']:+.0f}%",
                f"{row[f'rho_{name}']:.3f}",
                f"{row[f'loss_{name}']:.2e}",
            ]
        print("  ".join(f"{c:>12}" for c in cells))
    cells = ["median", str(int(medians["prior_dim"])), f"{100 * medians['uninvolved_ratio']:.0f}%"]
    for name in mode_names:
        cells += [
            f"{100 * medians[f'runtime_delta_{name}']:+.0f}%",
            f"{100 * medians[f'sparsify_share_{name}']:.1f}%",
            f"{100 * medians[f'nnz_delta_{name}']:+.0f}%",
            f"{medians[f'rho_{name}']:.3f}",
            f"{medians[f'loss_{name}']:.2e}",
        ]
    print("  ".join(f"{c:>12}" for c in cells))


def cmd_bounds(args) -> int:
    scenario = _load_scenario(args.scenario)
    values = evaluate_candidates(scenario.prior, scenario.candidates)
    bounds = candidate_bounds(scenario, args.ratios)
    lb_det, ub_det = bounds.det

    lines = ["candidate_id,j," + ",".join(
        ["lb_det", "ub_det"]
        + [f"lb_top_r{r:g},ub_top_r{r:g}" for r in args.ratios]
    )]
    print(f"{'cand':>5} {'J':>10} {'lb_det':>10} {'ub_det':>10}", end="")
    for r in args.ratios:
        print(f" {'lb_top@' + format(r, 'g'):>12} {'ub_top@' + format(r, 'g'):>12}", end="")
    print()
    for idx, (cand, j) in enumerate(zip(scenario.candidates, values)):
        cells = [str(cand.action_id), f"{j:.12g}", f"{lb_det[idx]:.12g}", f"{ub_det[idx]:.12g}"]
        print(f"{cand.action_id:>5} {j:>10.3f} {lb_det[idx]:>10.3f} {ub_det[idx]:>10.3f}", end="")
        for r in args.ratios:
            lb_r, ub_r = bounds.top_by_ratio[float(r)]
            cells += [f"{lb_r[idx]:.12g}", f"{ub_r[idx]:.12g}"]
            print(f" {lb_r[idx]:>12.3f} {ub_r[idx]:>12.3f}", end="")
        print()
        lines.append(",".join(cells))
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    # only the scenario's actual noise model certifies validity; swept
    # ratios describe hypothetical noise and are reported unchecked
    if _objective_bound_violations(values, bounds.top, bounds.det):
        print("GUARANTEE VIOLATED: an objective bound does not contain J", file=sys.stderr)
        return EXIT_GUARANTEE_VIOLATED
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, keeping exit code 2 for violated guarantees."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beliefplan",
        description="Belief-space planning with belief sparsification on synthetic pose-SLAM scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a scenario JSON file")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", default="scenario.json")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="run one planning session on a scenario file")
    p_solve.add_argument("--scenario", required=True)
    p_solve.add_argument(
        "--mode",
        action="append",
        choices=["none", "uninvolved", "full", "custom"],
        help="sparsification mode (repeatable; default: uninvolved and full)",
    )
    p_solve.add_argument("--blocks", type=_parse_blocks, default=(), help="custom-mode block ids, e.g. 3,5,9")
    p_solve.add_argument("--ratios", type=_parse_ratios, default=DEFAULT_NOISE_RATIOS)
    p_solve.add_argument("--repeats", type=_positive_int, default=1, help="timing repetitions per phase")
    p_solve.add_argument("--out-dir", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run seeded sessions and aggregate medians")
    _add_config_flags(p_bench)
    p_bench.add_argument("--seeds", type=_positive_int, default=20, help="number of sessions")
    p_bench.add_argument("--first-seed", type=int, default=0)
    p_bench.add_argument("--modes", default="uninvolved,full", help="comma-separated mode list")
    p_bench.add_argument("--blocks", type=_parse_blocks, default=())
    p_bench.add_argument("--ratios", type=_parse_ratios, default=DEFAULT_NOISE_RATIOS)
    p_bench.add_argument("--repeats", type=_positive_int, default=5)
    p_bench.add_argument("--out-dir", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_bounds = sub.add_parser("bounds", help="evaluate objective bounds for a scenario")
    p_bounds.add_argument("--scenario", required=True)
    p_bounds.add_argument("--ratios", type=_parse_ratios, default=DEFAULT_NOISE_RATIOS)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BeliefPlanError, OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
