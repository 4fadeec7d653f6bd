"""Progress and cost instrumentation of the state-space scan.

Every backend reports phase progress against the same 2^N total and
fills the same :class:`ScanCounters`; the CLI surfaces both with
``--progress``.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.core import PerformabilityAnalyzer, ScanCounters
from repro.core.enumeration import StateSpaceProblem
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn import model_to_json
from repro.mama.serialize import mama_to_json


def _analyzer(figure1, mama):
    return PerformabilityAnalyzer(
        figure1, mama, failure_probs=figure1_failure_probs(mama)
    )


def _assert_scan_progress(events, analyzer):
    """Progress is monotone and ends exactly at completion."""
    assert events, "no progress events delivered"
    completed = [e.completed for e in events]
    assert completed == sorted(completed)
    assert events[-1].completed == events[-1].total
    assert events[-1].total == analyzer.problem.state_count
    assert all(e.phase == "scan" for e in events)


class TestProgressInstrumentation:
    def test_enumeration_visits_every_state(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
        counters = ScanCounters()
        events = []
        analyzer.configuration_probabilities(
            method="enumeration",
            counters=counters,
            progress=events.append,
        )
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.app_states_visited == analyzer.problem.app_state_count
        # The knowledge-bit memo means far fewer fault-graph walks than
        # states; together they cover every non-skipped state.
        assert (
            counters.fault_graph_evaluations + counters.knowledge_cache_hits
            == analyzer.problem.state_count
        )
        assert counters.distinct_configurations == 7
        assert counters.scan_seconds > 0.0
        _assert_scan_progress(events, analyzer)

    def test_factored_covers_same_total(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
        counters = ScanCounters()
        analyzer.configuration_probabilities(
            method="factored", counters=counters
        )
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.app_states_visited == analyzer.problem.app_state_count
        assert counters.decision_leaves >= counters.app_states_visited

    def test_solve_reports_lqn_phase(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
        events = []
        result = analyzer.solve(method="factored", progress=events.append)
        phases = {e.phase for e in events}
        assert phases == {"scan", "lqn"}
        lqn_events = [e for e in events if e.phase == "lqn"]
        assert lqn_events[-1].completed == lqn_events[-1].total
        counters = result.counters
        assert counters.lqn_solves + counters.lqn_cache_hits + 1 == len(
            result.records
        )  # +1: the failed configuration needs no LQN solve
        assert counters.lqn_seconds > 0.0

    def test_counters_merge_is_additive(self):
        left = ScanCounters(states_visited=3, scan_seconds=0.5, lqn_solves=2)
        right = ScanCounters(states_visited=4, scan_seconds=0.25)
        left.merge(right)
        assert left.states_visited == 7
        assert left.scan_seconds == 0.75
        assert left.lqn_solves == 2
        assert "states_visited" in left.as_dict()


class TestBitsProgress:
    """The compiled kernel batches states, so its progress/counters path
    is distinct from the interpreted scan; this pins it to the
    interpreted reference."""

    @pytest.mark.parametrize("mama_fixture", ["centralized", "distributed"])
    def test_bits_matches_interp_with_progress(
        self, figure1, mama_fixture, request
    ):
        mama = request.getfixturevalue(mama_fixture)
        analyzer = _analyzer(figure1, mama)
        reference = analyzer.configuration_probabilities(method="enumeration")
        counters = ScanCounters()
        events = []
        compiled = analyzer.configuration_probabilities(
            method="bits", counters=counters, progress=events.append,
        )
        assert set(compiled) == set(reference)
        for configuration, probability in reference.items():
            assert compiled[configuration] == pytest.approx(
                probability, abs=1e-12
            ), configuration
        # The kernel scans a flat index space, so it reports no
        # app/mgmt split, but it covers the same 2^N states.
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.distinct_configurations == len(reference)
        assert counters.kernel_batches > 0
        _assert_scan_progress(events, analyzer)

    def test_bits_on_generated_scenarios(self):
        from repro.verify import generate_scenario

        for seed in (1, 4, 7):
            analyzer = generate_scenario(seed).analyzer()
            reference_counters = ScanCounters()
            reference = analyzer.configuration_probabilities(
                method="enumeration", counters=reference_counters
            )
            counters = ScanCounters()
            compiled = analyzer.configuration_probabilities(
                method="bits", counters=counters
            )
            assert set(compiled) == set(reference), seed
            for configuration, probability in reference.items():
                assert compiled[configuration] == pytest.approx(
                    probability, abs=1e-12
                ), (seed, configuration)
            assert (
                counters.states_visited == reference_counters.states_visited
            ), seed


class TestEngineHelpers:
    def test_problem_pickles_cleanly(self, figure1, centralized):
        problem = _analyzer(figure1, centralized).problem
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.app_components == problem.app_components
        assert clone.mgmt_components == problem.mgmt_components
        assert dict(clone.leaf_causes) == dict(problem.leaf_causes)
        assert clone.state_count == problem.state_count

    def test_leaf_causes_defaults_to_empty_mapping(self, figure1):
        problem = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        ).problem
        assert problem.leaf_causes == {}
        # field(default_factory=dict): construction without the argument
        # must yield a fresh, non-shared, non-None mapping.
        bare = StateSpaceProblem(
            graph=problem.graph,
            know_exprs={},
            perfect=True,
            app_components=problem.app_components,
            mgmt_components=(),
            fixed_up=problem.fixed_up,
            fixed_down=problem.fixed_down,
            up_probability=problem.up_probability,
        )
        assert bare.leaf_causes == {}
        assert bare.leaf_causes is not problem.leaf_causes


class TestCLIFlags:
    @pytest.fixture
    def model_files(self, tmp_path, figure1, centralized):
        ftlqn_path = tmp_path / "figure1.json"
        mama_path = tmp_path / "centralized.json"
        probs_path = tmp_path / "probs.json"
        ftlqn_path.write_text(model_to_json(figure1))
        mama_path.write_text(mama_to_json(centralized))
        probs_path.write_text(
            json.dumps(figure1_failure_probs(centralized))
        )
        return str(ftlqn_path), str(mama_path), str(probs_path)

    def test_progress_flag(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        code = main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--method", "factored", "--progress",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "(factored evaluation)" in captured.out
        assert "expected steady-state reward rate" in captured.out
        assert "[scan]" in captured.err
        assert "[lqn]" in captured.err
        assert "cache hits" in captured.err

    def test_help_mentions_progress_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        helptext = capsys.readouterr().out
        assert "--jobs" not in helptext
        assert "--progress" in helptext
        assert "performance_guide" in helptext
