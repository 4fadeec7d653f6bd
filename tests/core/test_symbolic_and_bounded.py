"""Backend-specific behaviour of the symbolic and bounded engines.

Parity and containment against the exact backends live in
``test_backend_parity.py``; these tests pin down what only the new
backends themselves can promise — the cost counters they publish, the
nominal configuration used for the reward ceiling, and how ε threads
through the public entry points.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import (
    PerformabilityAnalyzer,
    ScanCounters,
    bdd_configurations,
    bounded_configurations,
    build_indicator_bdd,
    nominal_configuration,
)
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.experiments.largescale import replicated_service_model
from tests.core.random_models import random_scenario


def analyzer_for(seed):
    ftlqn, mama, failure_probs, causes = random_scenario(seed)
    return PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=failure_probs, common_causes=causes
    )


class TestSymbolicCounters:
    def test_bdd_counters_are_filled(self):
        analyzer = analyzer_for(3)
        counters = ScanCounters()
        result = bdd_configurations(analyzer.problem, counters=counters)
        assert counters.bdd_nodes > 0
        assert counters.bdd_cache_hits >= 0
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.distinct_configurations == len(result)
        assert counters.scan_seconds > 0.0


class TestSymbolicStructure:
    @pytest.mark.parametrize("n", [10, 50, 100])
    def test_replicated_service_compiles_to_quadratic_size(self, n):
        ftlqn, failure_probs = replicated_service_model(n)
        problem = PerformabilityAnalyzer(
            ftlqn, None, failure_probs=failure_probs
        ).problem
        manager, outputs = build_indicator_bdd(problem)
        assert len(manager) <= (n + 1) ** 2
        before = len(manager)
        masses = manager.signature_masses(outputs, problem.up_probability)
        assert len(masses) == n + 1
        assert len(manager) == before

    def test_paper_rewards_are_bitwise_pinned(self):
        # The default backend's §6 rewards equal, with ``==``, the values
        # the benchmark's correctness gate pins.
        path = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_perf_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for case, pinned in workloads.PAPER_REWARDS.items():
            mama = ARCHITECTURE_BUILDERS[case]() if case is not None else None
            result = PerformabilityAnalyzer(
                figure1_system(), mama, failure_probs=figure1_failure_probs(mama)
            ).solve()
            assert result.expected_reward == pinned, case


class TestBoundedCounters:
    def test_bounded_counters_are_filled(self):
        analyzer = analyzer_for(3)
        counters = ScanCounters()
        result = bounded_configurations(
            analyzer.problem, epsilon=1e-6, counters=counters
        )
        assert counters.kernel_instructions > 0
        assert counters.kernel_batches >= 1
        assert counters.states_visited >= 1
        assert counters.enumerated_mass == pytest.approx(
            sum(result.values()), abs=1e-12
        )
        assert 1.0 - counters.enumerated_mass <= 1e-6 + 1e-9

    def test_max_states_caps_enumeration(self):
        analyzer = analyzer_for(3)
        counters = ScanCounters()
        bounded_configurations(
            analyzer.problem, epsilon=0.0, max_states=8, counters=counters
        )
        assert counters.states_visited <= 8


class TestNominalConfiguration:
    def test_nominal_is_the_all_up_configuration(self):
        analyzer = analyzer_for(1)
        nominal = nominal_configuration(analyzer.problem)
        exact = analyzer.configuration_probabilities(method="enumeration")
        # The all-up state is always scanned, so the configuration it
        # produces must appear in every exact result.
        assert nominal in exact
        assert nominal is not None


class TestEpsilonThreading:
    def test_solve_reports_interval_fields(self):
        analyzer = analyzer_for(1)
        result = analyzer.solve(method="bounded", epsilon=0.25)
        assert 0.0 <= result.unexplored_probability <= 0.25 + 1e-9
        assert result.reward_lower is not None
        assert result.reward_upper is not None
        assert result.reward_lower <= result.expected_reward
        assert result.reward_interval == (
            result.reward_lower, result.reward_upper
        )

    def test_exact_methods_report_degenerate_interval(self):
        analyzer = analyzer_for(1)
        result = analyzer.solve(method="bdd")
        assert result.unexplored_probability == 0.0
        assert result.reward_lower is None and result.reward_upper is None
        assert result.reward_interval == (
            result.expected_reward, result.expected_reward
        )
