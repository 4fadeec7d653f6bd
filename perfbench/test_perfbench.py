"""Tests of the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    Target,
    children_of,
    installed,
    outermost_totals,
    self_times,
)


def test_benchmark_file_names_every_reported_metric():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    declared = json.loads(path.read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.UNITS
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


class TestPercentile:
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        assert run.percentile(values, 0.9) == 90
        assert run.percentile(values[:99], 0.9) is None

    def test_median_of_twenty_has_ten_beyond(self):
        assert run.percentile(range(20), 0.5) == 9
        assert run.percentile(range(19), 0.5) is None

    def test_order_of_samples_does_not_matter(self):
        values = list(range(200))
        random.Random(3).shuffle(values)
        assert run.percentile(values, 0.9) == 179


def _span(name, start, end, parent=-1):
    return Span(name, float(start), float(end), parent)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span("op", 0, 10),
            _span("a", 1, 4, 0),
            _span("b", 2, 3, 1),
            _span("c", 5, 9, 0),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_recursion_counts_once(self):
        spans = [
            _span("op", 0, 10),
            _span("x", 1, 6, 0),
            _span("x", 2, 3, 1),
            _span("y", 7, 9, 0),
        ]
        totals = outermost_totals(spans, children_of(spans), 0)
        assert totals == {"x": 5.0, "y": 2.0}

    def test_recorder_links_parents_per_thread(self):
        recorder = Recorder()
        with recorder.span("op"):
            with recorder.span("a"):
                with recorder.span("b"):
                    pass
            with recorder.span("c"):
                pass
        names = [(s.name, s.parent) for s in recorder.spans]
        assert names == [("op", -1), ("a", 0), ("b", 1), ("c", 0)]
        own = self_times(recorder.spans)
        assert all(value >= 0 for value in own)
        assert sum(own) == pytest.approx(recorder.spans[0].duration)

    def test_per_layer_fold_uses_self_time(self):
        spans = [
            _span("op", 0, 10),
            _span("core.fold", 1, 5, 0),
            _span("lqn.solve", 2, 4, 1),
            _span("core.scan", 6, 9, 0),
        ]
        spans[2].attrs = {"models": 3, "iterations": 30, "unconverged": 0}
        spans[1].attrs = {"configurations": [1, 2, 3, 4]}
        spans[3].attrs = {"calls": 1}
        metrics = layers.per_layer(spans)
        assert metrics["core.fold_ms"] == 2000.0
        assert metrics["lqn.solve_ms"] == 2000.0
        assert metrics["core.scan_ms"] == 3000.0
        assert metrics["lqn.cache_hit_ratio"] == 0.25
        assert metrics["lqn.iterations_mean"] == 10.0
        assert metrics["trace.coverage"] == 0.7
        assert set(metrics) | {"trace.overhead_pct"} == set(layers.UNITS)


class TestWrappers:
    def test_install_records_and_restores(self):
        owner = types.SimpleNamespace(double=lambda x: 2 * x)
        original = owner.double

        def count(attrs, args, kwargs, result):
            attrs["seen"] = (args, result)

        recorder = Recorder()
        with installed(recorder, [Target(owner, "double", "layer.double", count)]):
            assert owner.double is not original
            assert owner.double(4) == 8
        assert owner.double is original
        assert [(s.name, s.attrs) for s in recorder.spans] == [
            ("layer.double", {"seen": ((4,), 8)})
        ]

    def test_restores_after_an_exception(self):
        owner = types.SimpleNamespace(f=lambda: None)
        original = owner.f
        with pytest.raises(RuntimeError):
            with installed(Recorder(), [Target(owner, "f", "f")]):
                raise RuntimeError
        assert owner.f is original

    def test_every_layer_target_is_restored(self):
        targets = layers.targets()
        before = [getattr(t.owner, t.attribute) for t in targets]
        with installed(Recorder(), targets):
            during = [getattr(t.owner, t.attribute) for t in targets]
        after = [getattr(t.owner, t.attribute) for t in targets]
        assert after == before
        assert all(a is not b for a, b in zip(before, during))

    def test_traced_answers_match_untraced(self):
        workload = workloads.PaperCold()
        workload.setup(0, traced=False)
        plain = run.measure(workload, workload.operations(0), count=5)
        recorder = Recorder()
        with installed(recorder, layers.targets()):
            again = run.measure(
                workload, workload.operations(0), count=5, recorder=recorder
            )
        assert plain.records == again.records
        assert not workload.check(plain.records, random.Random(0))
        metrics = layers.per_layer(recorder.spans)
        assert metrics["core.structure_ms"] > 0 and metrics["lqn.solve_ms"] > 0
        assert metrics["trace.coverage"] > 0.95


class TestReplicatedClosedForm:
    P = 0.1
    N = 5

    def _answer(self):
        nominal = 0.75
        configurations = {
            k: (self.P**k * (1 - self.P), nominal) for k in range(self.N)
        }
        configurations[None] = (self.P**self.N, 0.0)
        return configurations, (1 - self.P**self.N) * nominal

    def test_closed_form_passes(self):
        configurations, reward = self._answer()
        assert workloads.replicated_errors(self.P, self.N, configurations, reward) == []

    @pytest.mark.parametrize("k", [0, 3, None])
    def test_wrong_probability_fails(self, k):
        configurations, reward = self._answer()
        probability, value = configurations[k]
        configurations[k] = (probability + 1e-9, value)
        assert workloads.replicated_errors(self.P, self.N, configurations, reward)

    def test_wrong_reward_or_missing_configuration_fails(self):
        configurations, reward = self._answer()
        assert workloads.replicated_errors(self.P, self.N, configurations, reward + 1e-9)
        del configurations[2]
        assert workloads.replicated_errors(self.P, self.N, configurations, reward)

    def test_real_solve_matches_closed_form(self):
        from repro.core.performability import PerformabilityAnalyzer
        from repro.experiments.largescale import replicated_service_model

        ftlqn, probs = replicated_service_model(8, failure_probability=self.P)
        result = PerformabilityAnalyzer(ftlqn, None, failure_probs=probs).solve(method="bdd")
        p, reward, configurations = workloads.ReplicatedLarge().digest(self.P, result)
        assert workloads.replicated_errors(p, 8, configurations, reward) == []


class TestOverrides:
    def test_catalog_overrides_stay_in_each_architecture(self):
        from repro.core.sweep import SweepEngine, SweepPoint
        from repro.service.catalog import load_scenario, scenario_names

        rng = random.Random(7)
        for name in scenario_names():
            bundle = load_scenario(name)
            # The daemon's effective map for a bare request, which is
            # what the workload's warm-up reads as its baseline.
            engine = SweepEngine(
                bundle.ftlqn, dict(bundle.architectures),
                base_failure_probs=dict(bundle.failure_probs),
            )
            for key, mama in bundle.architectures.items():
                universe = (
                    set(bundle.ftlqn.component_names())
                    | set(mama.components)
                    | set(mama.connectors)
                )
                baseline = engine.effective_failure_probs(
                    SweepPoint(name="warm", architecture=key)
                )
                overrides = workloads.scaled_overrides(baseline, rng)
                assert set(overrides) == set(baseline) <= universe
                for component, probability in overrides.items():
                    assert 0.5 <= probability / baseline[component] <= 2.0

    def test_repeats_are_recent_points_one_in_four(self):
        workload = workloads.WhatifService()
        workload.pairs = [
            ("s1", "a", {"x": 0.1, "y": 0.2}),
            ("s1", "b", {"x": 0.1}),
            ("s2", "a", {"z": 0.05}),
        ]
        stream = workload.operations(11)
        items = [next(stream) for _ in range(40)]
        fresh = []
        for index, item in enumerate(items):
            if index % 4 == 3:
                assert item in fresh[-4:]
            else:
                assert item not in fresh
                fresh.append(item)
        again = workload.operations(11)
        assert [next(again) for _ in range(40)] == items
