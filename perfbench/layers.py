"""Metric definitions: end-to-end metrics and the per-layer map.

End-to-end timings are sums of benchmark parts (see ``cycle.plan_session``).
Each per-layer metric names where it comes from and which end-to-end metric
it should move, on which workload; the traced run prints that map.

Per-layer sources:

- ``cycle``: self time of the named spans inside the timed cycle, summed per
  traced cycle, fastest traced cycle;
- ``probe``: self time of the named spans in the probes run after the timed
  cycles (calls a cycle makes only inside other calls);
- ``probe_each``: median duration of one such probe span;
- ``count``: counter values summed per cycle (``max`` for sizes), median
  over cycles.
"""

END_TO_END = (
    # name, unit, benchmark parts summed
    ("setup_s", "s", ("generate",)),
    ("load_s", "s", ("to_json", "write", "read", "from_json")),
    ("session_s", "s", ("session",)),
    ("decide_original_s", "s", ("solve_original",)),
    ("decide_uninvolved_s", "s", ("detect", "sparsify_uninvolved", "solve_uninvolved")),
    ("decide_full_s", "s", ("sparsify_full", "solve_full")),
    ("certify_s", "s", ("certify",)),
    ("commit_s", "s", ("propagate", "belief_to_json")),
)
DERIVED = (
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
    ("full_rho", "ratio"),
    ("loss_bound_top", "nats"),
)

ANY = "*"  # matches every span tag

PER_LAYER = (
    # name, unit, source, keys ((span name, tag), ...) or counter name, prediction
    ("scenario.generate_s", "s", "cycle", (("scenario.generate", None),), "setup_s (plan-3k)"),
    ("scenario.jacobian_s", "s", "probe", (("scenario.build_collective_jacobian", None),),
     "load_s (batch-small, plan-3k)"),
    ("scenario.to_json_s", "s", "cycle", (("scenario.scenario_to_json", None),), "load_s (batch-small, plan-3k)"),
    ("scenario.from_json_s", "s", "cycle", (("scenario.scenario_from_json", None),),
     "load_s (batch-small, plan-3k)"),
    ("scenario.json_bytes", "bytes", "count", "scenario.json_bytes", "load_s (batch-small, plan-3k)"),
    ("scenario.run_session_s", "s", "cycle", (("scenario.run_session", None),), "session_s"),
    ("scenario.report_s", "s", "probe", (("scenario.report_to_json", None), ("scenario.report_to_csv", None)),
     "no move"),
    ("scenario.report_bytes", "bytes", "count", "scenario.report_bytes", "no move"),
    ("sparse.cholesky_s", "s", "probe", (("sparse.cholesky", None),),
     "setup_s, load_s, decide_uninvolved_s, peak_rss_mb (plan-3k)"),
    ("sparse.gram_s", "s", "probe", (("sparse.gram", None),), "session_s, decide_uninvolved_s (plan-3k)"),
    ("sparse.lowrank_update_s", "s", "probe", (("sparse.lowrank_update", None),),
     "decide_original_s (plan-1k), commit_s"),
    ("sparse.lowrank_update_per_candidate_s", "s", "probe_each", (("sparse.lowrank_update", None),),
     "decide_original_s (plan-1k), commit_s"),
    ("sparse.update_rows_touched", "count", "count", "sparse.update_rows_touched",
     "explains decide_original_s, commit_s"),
    ("sparse.update_fill_nnz", "count", "count", "sparse.update_fill_nnz", "explains decide_original_s, commit_s"),
    ("sparse.bandwidth", "count", "count", "sparse.bandwidth", "explains decide_original_s, commit_s"),
    ("sparse.root_nnz", "count", "count", "sparse.root_nnz", "exact count"),
    ("sparse.info_nnz", "count", "count", "sparse.info_nnz", "exact count"),
    ("belief.objective_s", "s", "cycle", (("belief.objective", "original"),), "decide_original_s (plan-1k)"),
    ("belief.objective_uninvolved_s", "s", "cycle", (("belief.objective", "uninvolved"),),
     "decide_uninvolved_s"),
    ("belief.objective_full_s", "s", "cycle", (("belief.objective", "full"),), "decide_full_s"),
    ("belief.propagate_s", "s", "cycle", (("belief.propagate", None),), "commit_s"),
    ("belief.to_json_s", "s", "cycle", (("belief.belief_to_json", None),), "commit_s"),
    ("belief.from_json_s", "s", "probe", (("belief.belief_from_json", None),), "commit_s"),
    ("belief.json_bytes", "bytes", "count", "belief.json_bytes", "commit_s"),
    ("sparsify.uninvolved_s", "s", "cycle", (("sparsify.sparsify_belief", "uninvolved"),),
     "decide_uninvolved_s (plan-3k)"),
    ("sparsify.detect_s", "s", "cycle", (("sparsify.detect_involvement", None),), "negligible"),
    ("sparsify.full_s", "s", "cycle", (("sparsify.sparsify_belief", "full"),), "negligible"),
    ("sparsify.uninvolved_blocks", "count", "count", "sparsify.uninvolved_blocks", "count"),
    ("sparsify.involved_scalars", "count", "count", "sparsify.involved_scalars", "count"),
    ("sparsify.uninvolved_root_nnz", "count", "count", "sparsify.uninvolved_root_nnz", "count"),
    ("sparsify.full_root_nnz", "count", "count", "sparsify.full_root_nnz", "count"),
    ("decision.solve_self_s", "s", "cycle", (("decision.solve", ANY),), "decide_*"),
    ("decision.compare_s", "s", "probe", (("decision.compare", None),), "no move"),
    ("decision.consistent_modes", "count", "count", "decision.consistent_modes", "count"),
    ("bounds.topological_s", "s", "cycle", (("bounds.topological_bounds", None),), "certify_s (plan-3k)"),
    ("bounds.spanning_tree_s", "s", "probe", (("bounds.spanning_tree_count", None),), "certify_s (plan-3k)"),
    ("bounds.determinant_s", "s", "cycle", (("bounds.determinant_bounds", None),), "certify_s (plan-3k)"),
    ("bounds.loss_s", "s", "cycle", (("bounds.post_solution_loss_bound", None),), "certify_s (plan-3k)"),
    ("bounds.topological_calls", "count", "count", "bounds.topological_calls", "count"),
    ("bounds.graph_nodes", "count", "count", "bounds.graph_nodes", "count"),
    ("bounds.graph_edges", "count", "count", "bounds.graph_edges", "count"),
    ("mmio.write_s", "s", "probe", (("mmio.triangular_to_mm", None),), "commit_s (batch-small)"),
    ("mmio.read_s", "s", "probe", (("mmio.mm_to_triangular", None),), "commit_s (batch-small)"),
    ("mmio.bytes", "bytes", "count", "mmio.bytes", "commit_s (batch-small)"),
    ("cli.solve_s", "s", "probe", (("cli.solve", None),), "information only"),
    ("cli.exit_code", "code", "count", "cli.exit_code", "information only"),
)

# sizes are the largest over the cycle's sessions and candidates, not a sum
MAX_COUNTERS = frozenset({"sparse.bandwidth", "bounds.graph_nodes", "bounds.graph_edges", "cli.exit_code"})

MODULES = ("scenario", "sparse", "belief", "sparsify", "decision", "bounds", "mmio", "cli")
