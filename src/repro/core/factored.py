"""Factored configuration-probability evaluator (the §7 conjecture).

The paper notes that full 2^N enumeration limits scalability and that
"much more efficient pruning appears to be possible, using a
non-state-space-based approach".  This module implements one:

* enumerate only the application-component states (2^a, the leaves of
  the fault propagation graph);
* in each application state, discover *which* knowledge bits the
  reconfiguration decision actually consults, by evaluating the fault
  graph with a probing ``know`` function and branching only on bits
  that are genuinely queried and genuinely uncertain (an adaptive
  decision tree whose leaves are configurations);
* weigh each decision-tree leaf by the exact probability of its
  knowledge-literal conjunction over the management variables, computed
  on a BDD.

The result is bit-for-bit equal to the enumerative method (this is
property-tested) while visiting exponentially fewer states when the
management architecture is large.
"""

from __future__ import annotations

import time
from itertools import product

from repro.booleans.bdd import BDD, ONE
from repro.booleans.expr import Expr, FALSE, TRUE
from repro.core.enumeration import StateSpaceProblem, _state_probability
from repro.core.progress import ProgressCallback, ProgressReporter, ScanCounters


class _NeedBit(Exception):
    """Raised by the probing know function on an undetermined bit."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(pair)
        self.pair = pair


def _factored_scan(
    problem: StateSpaceProblem,
    accumulator: dict[frozenset[str] | None, float],
    counters: ScanCounters,
    tick=None,
) -> None:
    """Scan every application state into ``accumulator``.

    One BDD manager over the management variables is shared across all
    application states.  ``tick``, if given, is called after each
    application state (for progress reporting).
    """
    fixed = problem.fixed_assignment()
    mgmt_states = problem.mgmt_state_count
    manager = BDD(sorted(problem.mgmt_components))
    up_probs = {
        name: problem.up_probability[name] for name in problem.mgmt_components
    }

    for app_bits in product((True, False), repeat=len(problem.app_components)):
        app_state = dict(zip(problem.app_components, app_bits))
        counters.app_states_visited += 1
        counters.states_visited += mgmt_states
        p_app = _state_probability(
            problem.app_components, app_bits, problem.up_probability
        )
        if p_app == 0.0:
            if tick is not None:
                tick()
            continue
        leaf_state = problem.leaf_state(app_state)

        if problem.perfect:
            configuration = problem.graph.evaluate(
                leaf_state, lambda c, t: True
            ).configuration
            counters.fault_graph_evaluations += 1
            counters.decision_leaves += 1
            accumulator[configuration] = (
                accumulator.get(configuration, 0.0) + p_app
            )
            if tick is not None:
                tick()
            continue

        substitution = {**fixed, **app_state}
        reduced: dict[tuple[str, str], Expr] = {
            pair: expr.substitute(substitution)
            for pair, expr in problem.know_exprs.items()
        }
        bdd_cache: dict[tuple[str, str], int] = {}

        def bdd_of(pair: tuple[str, str]) -> int:
            node = bdd_cache.get(pair)
            if node is None:
                node = manager.from_expr(reduced[pair])
                bdd_cache[pair] = node
            return node

        leaves: list[tuple[dict[tuple[str, str], bool], frozenset[str] | None]] = []
        assignment: dict[tuple[str, str], bool] = {}

        def probe(component: str, task: str) -> bool:
            pair = (component, task)
            if pair in assignment:
                return assignment[pair]
            expr = reduced.get(pair)
            if expr is None:
                # A pair never computed from the MAMA model: the task
                # has no way to learn this component's state.
                return False
            # Identity checks, not ``==``: the constants are pickle-stable
            # singletons (see ``_Constant.__reduce__``), and this is the
            # same fast path ``enumeration._scan`` uses, so both
            # evaluators stay in lockstep.
            if expr is TRUE:
                return True
            if expr is FALSE:
                return False
            raise _NeedBit(pair)

        def explore() -> None:
            counters.fault_graph_evaluations += 1
            try:
                configuration = problem.graph.evaluate(
                    leaf_state, probe
                ).configuration
            except _NeedBit as need:
                for value in (True, False):
                    assignment[need.pair] = value
                    explore()
                del assignment[need.pair]
                return
            leaves.append((dict(assignment), configuration))

        explore()
        counters.decision_leaves += len(leaves)

        for condition, configuration in leaves:
            node = ONE
            for pair, value in condition.items():
                pair_node = bdd_of(pair)
                if not value:
                    pair_node = manager.negate(pair_node)
                node = manager.apply_and(node, pair_node)
            probability = manager.probability(node, up_probs)
            if probability == 0.0:
                continue
            accumulator[configuration] = (
                accumulator.get(configuration, 0.0) + p_app * probability
            )
        if tick is not None:
            tick()


def factored_configurations(
    problem: StateSpaceProblem,
    *,
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> dict[frozenset[str] | None, float]:
    """Exact configuration probabilities without enumerating management
    states; see the module docstring for the algorithm.

    ``progress`` and ``counters`` behave as in
    :func:`repro.core.enumeration.enumerate_configurations`; progress
    ``completed``/``total`` count covered raw states (application
    states × 2^m), so both methods report against the same 2^N total.
    """
    if counters is None:
        counters = ScanCounters()
    reporter = ProgressReporter(progress)
    total_states = problem.state_count
    started = time.perf_counter()
    accumulator: dict[frozenset[str] | None, float] = {}

    def tick() -> None:
        reporter.emit("scan", counters.states_visited, total_states, counters)

    _factored_scan(
        problem, accumulator, counters, tick=tick if reporter.active else None
    )

    counters.record_level("distinct_configurations", len(accumulator))
    counters.scan_seconds += time.perf_counter() - started
    reporter.emit(
        "scan", counters.states_visited, total_states, counters, force=True
    )
    return accumulator
