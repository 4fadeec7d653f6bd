"""The per-layer split: which public functions are wrapped, and how the
recorded spans fold into the ``per_layer`` metrics of BENCHMARK.json.

Layers are the package's modules (``ftlqn``, ``mama``, ``core``,
``booleans``, ``lqn``, ``markov``, ``service``).  A function imported by
name into another module is wrapped where it is looked up at call time,
so every call site on the benchmark's paths is covered.
"""

from __future__ import annotations

from collections.abc import Sequence

from spans import Span, Target, children_of, descendants, outermost_totals, self_times

#: metric -> span whose time it reports; ``self`` metrics subtract the
#: span's children (the fold without its LQN solves, the delay model
#: without its steady-state solve and fault-graph walk).
TIMES = {
    "ftlqn.parse_ms": ("ftlqn.parse", False),
    "mama.parse_ms": ("mama.parse", False),
    "ftlqn.fault_graph_ms": ("ftlqn.fault_graph", False),
    "mama.know_table_ms": ("mama.know_table", False),
    "core.structure_ms": ("core.structure", False),
    "core.scan_ms": ("core.scan", False),
    "core.indicators_ms": ("core.indicators", False),
    "core.to_lqn_ms": ("core.to_lqn", False),
    "core.fold_ms": ("core.fold", True),
    "booleans.bdd_compile_ms": ("booleans.bdd_compile", False),
    "booleans.bdd_traversal_ms": ("booleans.bdd_traversal", False),
    "lqn.solve_ms": ("lqn.solve", False),
    "markov.transient_ms": ("markov.transient", False),
    "markov.delay_model_ms": ("markov.delay_model", True),
    "markov.steady_solve_ms": ("markov.steady_solve", False),
    "service.handler_ms": ("service.handler", False),
}

#: metric -> (span name, attribute) summed per operation.
COUNTS = {
    "mama.know_pairs": ("mama.know_table", "pairs"),
    "core.scans": ("core.scan", "calls"),
    "booleans.bdd_nodes": ("booleans.bdd_traversal", "nodes"),
    "lqn.models_solved": ("lqn.solve", "models"),
    "lqn.unconverged": ("lqn.solve", "unconverged"),
    "markov.chain_states": ("markov.steady_solve", "states"),
}

UNITS = {
    **{name: "ms" for name in TIMES},
    "service.http_ms": "ms",
    **{name: "count" for name in COUNTS},
    "core.configurations": "count",
    "lqn.batch_max": "count",
    "lqn.iterations_mean": "count",
    "core.scan_cache_hit_ratio": "ratio",
    "lqn.cache_hit_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


def _calls(attrs, args, kwargs, result) -> None:
    attrs["calls"] = 1


def _pairs(attrs, args, kwargs, result) -> None:
    attrs["pairs"] = len(result)


def _scan_hit(attrs, args, kwargs, result) -> None:
    attrs["hit"] = bool(result[1])


def _configurations(attrs, args, kwargs, result) -> None:
    # Hashes stay distinct within one process, which is all a per-op
    # distinct count needs, and keep the daemon's span dump small.
    attrs["configurations"] = [hash(c) for c in args[1] if c is not None]


def _bdd_nodes(attrs, args, kwargs, result) -> None:
    # The manager after traversal holds every allocated node, which is
    # what the bdd backend reports as ``counters.bdd_nodes``.
    attrs["nodes"] = len(args[0])


def _lqn(attrs, args, kwargs, result) -> None:
    attrs["models"] = len(args[0])
    attrs["iterations"] = sum(item.iterations for item in result)
    attrs["unconverged"] = sum(not item.converged for item in result)


def _chain(attrs, args, kwargs, result) -> None:
    attrs["states"] = len(args[0])


def targets() -> list[Target]:
    """Every wrapped call site of the traced run."""
    import repro.booleans.bdd as bdd
    import repro.core.bounded as bounded
    import repro.core.kernel as kernel
    import repro.core.performability as performability
    import repro.core.sweep as sweep
    import repro.core.symbolic as symbolic
    import repro.ftlqn.serialize as ftlqn_serialize
    import repro.mama.knowledge as knowledge
    import repro.mama.serialize as mama_serialize
    import repro.markov.ctmc as ctmc
    import repro.markov.detection as detection
    import repro.markov.transient as transient
    import repro.service.batching as batching
    import repro.service.state as service_state

    analyzer = performability.PerformabilityAnalyzer
    return [
        Target(ftlqn_serialize, "model_from_json", "ftlqn.parse"),
        Target(service_state, "model_from_json", "ftlqn.parse"),
        Target(mama_serialize, "mama_from_json", "mama.parse"),
        Target(service_state, "mama_from_json", "mama.parse"),
        Target(performability, "build_fault_graph", "ftlqn.fault_graph"),
        Target(detection, "build_fault_graph", "ftlqn.fault_graph"),
        Target(knowledge.KnowledgeGraph, "know_table", "mama.know_table", _pairs),
        Target(performability, "derive_structure", "core.structure"),
        Target(sweep, "derive_structure", "core.structure"),
        Target(analyzer, "configuration_probabilities", "core.scan", _calls),
        Target(sweep.SweepEngine, "scan_for", "core.scan_lookup", _scan_hit),
        Target(kernel, "derive_indicators", "core.indicators"),
        Target(symbolic, "derive_indicators", "core.indicators"),
        Target(bounded, "derive_indicators", "core.indicators"),
        Target(performability, "configuration_to_lqn", "core.to_lqn"),
        Target(analyzer, "evaluate_probabilities", "core.fold", _configurations),
        Target(symbolic, "build_indicator_bdd", "booleans.bdd_compile"),
        Target(bdd.BDD, "signature_masses", "booleans.bdd_traversal", _bdd_nodes),
        Target(performability, "solve_lqn_batch", "lqn.solve", _lqn),
        Target(batching, "solve_lqn_batch", "lqn.solve", _lqn),
        Target(transient, "transient_unavailability", "markov.transient"),
        Target(detection, "detection_delay_model", "markov.delay_model"),
        Target(ctmc.CTMC, "steady_state", "markov.steady_solve", _chain),
        Target(service_state.AnalysisService, "analyze", "service.handler"),
    ]


def per_layer(spans: Sequence[Span]) -> dict[str, float]:
    """Fold the spans under every ``op`` span into per-op layer metrics.

    Times and counts are means per operation; ratios and the batch and
    iteration figures are taken over the whole traced run.
    ``trace.overhead_pct`` is not a span figure and is left to the caller.
    """
    children = children_of(spans)
    own = self_times(spans)
    ops = [index for index, span in enumerate(spans) if span.name == "op"]
    if not ops:
        raise ValueError("no operation spans recorded")
    sums = dict.fromkeys([*TIMES, *COUNTS, "core.configurations", "service.http_ms"], 0.0)
    wall = covered = 0.0
    scan_lookups = scan_hits = evaluated = solved = iterations = 0
    batch_max = 0
    for op in ops:
        inclusive = outermost_totals(spans, children, op)
        below = list(descendants(children, op))
        for metric, (name, own_time) in TIMES.items():
            if own_time:
                seconds = sum(own[i] for i in below if spans[i].name == name)
            else:
                seconds = inclusive.get(name, 0.0)
            sums[metric] += seconds * 1e3
        for metric, (name, attribute) in COUNTS.items():
            sums[metric] += sum(
                spans[i].attrs.get(attribute, 0)
                for i in below
                if spans[i].name == name
            )
        distinct: set[int] = set()
        for i in below:
            span = spans[i]
            if span.name == "core.scan_lookup":
                scan_lookups += 1
                scan_hits += span.attrs["hit"]
            elif span.name == "core.fold":
                distinct.update(span.attrs["configurations"])
                evaluated += len(span.attrs["configurations"])
            elif span.name == "lqn.solve":
                solved += span.attrs["models"]
                iterations += span.attrs["iterations"]
                batch_max = max(batch_max, span.attrs["models"])
        sums["core.configurations"] += len(distinct)
        duration = spans[op].duration
        handler = inclusive.get("service.handler", 0.0)
        if handler:
            sums["service.http_ms"] += (duration - handler) * 1e3
        wall += duration
        covered += sum(spans[i].duration for i in children[op])
    metrics = {name: value / len(ops) for name, value in sums.items()}
    metrics["lqn.batch_max"] = float(batch_max)
    metrics["lqn.iterations_mean"] = iterations / solved if solved else 0.0
    metrics["core.scan_cache_hit_ratio"] = (
        scan_hits / scan_lookups if scan_lookups else 0.0
    )
    # Single client, one request at a time: every configuration a fold
    # evaluates is either solved in its LQN batch or was already cached.
    metrics["lqn.cache_hit_ratio"] = (
        (evaluated - solved) / evaluated if evaluated else 0.0
    )
    metrics["trace.coverage"] = covered / wall
    return metrics
