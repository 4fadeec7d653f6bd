"""Canonical deduplication inside ``solve_lqn_batch``: models with the
same positional form share one fixed point, and every model still gets
its own bitwise-exact result under its own names."""

import random

import pytest

import repro.lqn.solver as solver
from repro.core import PerformabilityAnalyzer
from repro.core.configuration import configuration_to_lqn
from repro.errors import ModelError
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.experiments.largescale import replicated_service_model
from repro.lqn import LQNCall, LQNModel, solve_lqn, solve_lqn_batch
from repro.verify.generator import generate_scenario
from tests.lqn.test_solver_batch import RESULT_MAPPINGS, _assert_results_equal


@pytest.fixture
def fixed_points(monkeypatch):
    """The models ``solve_lqn_batch`` runs a fixed point for."""
    seen: list[LQNModel] = []
    init_state = solver._init_state

    def spy(model, max_iterations):
        seen.append(model)
        return init_state(model, max_iterations)

    monkeypatch.setattr(solver, "_init_state", spy)
    return seen


def configuration_lqns(ftlqn, mama, probs, causes=(), method="factored"):
    """The LQN of every operational configuration, in scan order."""
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=probs, common_causes=causes
    )
    return [
        configuration_to_lqn(ftlqn, configuration)
        for configuration in analyzer.configuration_probabilities(
            method=method
        )
        if configuration is not None
    ]


def _renamed(model: LQNModel, prefix: str) -> LQNModel:
    """A copy of ``model`` with every name prefixed."""
    copy = LQNModel(name=prefix + model.name)
    for p in model.processors.values():
        copy.add_processor(prefix + p.name, multiplicity=p.multiplicity)
    for t in model.tasks.values():
        copy.add_task(
            prefix + t.name, processor=prefix + t.processor,
            multiplicity=t.multiplicity, is_reference=t.is_reference,
            think_time=t.think_time,
        )
    for e in model.entries.values():
        copy.add_entry(
            prefix + e.name, task=prefix + e.task, demand=e.demand,
            phase2_demand=e.phase2_demand,
            calls=[LQNCall(prefix + c.target, c.mean_calls) for c in e.calls],
        )
    return copy


#: Parameters of :func:`_model`; every test variant changes one.
BASE = dict(
    client_cpus=1,
    server_cpus=2,
    server_host="ps",
    server_threads=2,
    spare_is_reference=False,
    think=1.0,
    demand=0.2,
    phase2=0.05,
    target="serve",
    calls=2.0,
    spare_demand=0.0,
    reverse_processors=False,
)


def _model(**overrides) -> LQNModel:
    """Client → two-entry server, plus a spare task.

    ``serve2`` matches ``serve``'s defaults and ``ps2`` matches ``ps``,
    so retargeting a call or rehosting the server changes positions
    only.
    """
    p = {**BASE, **overrides}
    m = LQNModel(name="model")
    processors = [("pc", p["client_cpus"]), ("ps", p["server_cpus"]), ("ps2", 2)]
    if p["reverse_processors"]:
        processors.reverse()
    for name, cpus in processors:
        m.add_processor(name, multiplicity=cpus)
    m.add_task(
        "client", processor="pc", multiplicity=3,
        is_reference=True, think_time=p["think"],
    )
    m.add_task(
        "server", processor=p["server_host"],
        multiplicity=p["server_threads"],
    )
    m.add_task(
        "spare", processor="ps2",
        is_reference=p["spare_is_reference"], think_time=0.5,
    )
    m.add_entry(
        "serve", task="server", demand=p["demand"],
        phase2_demand=p["phase2"],
    )
    m.add_entry("serve2", task="server", demand=0.2, phase2_demand=0.05)
    m.add_entry("idle", task="spare", demand=p["spare_demand"])
    m.add_entry(
        "cycle", task="client", demand=0.1,
        calls=[LQNCall(p["target"], mean_calls=p["calls"])],
    )
    return m


class TestClassesCollapse:
    def test_replicated_configurations_run_one_fixed_point(self, fixed_points):
        ftlqn, probs = replicated_service_model(100)
        models = configuration_lqns(ftlqn, None, probs, method="bdd")
        assert len(models) == 100
        batch = solve_lqn_batch(models)
        assert len(fixed_points) == 1
        for index in (0, 57, 99):
            _assert_results_equal(batch[index], solve_lqn(models[index]))

    def test_figure1_configurations_run_three_fixed_points(self, fixed_points):
        models = configuration_lqns(
            figure1_system(), None, figure1_failure_probs()
        )
        assert len(models) == 6
        batch = solve_lqn_batch(models)
        assert len(fixed_points) == 3
        solo = [solve_lqn(model) for model in models]
        for ours, reference in zip(batch, solo):
            _assert_results_equal(ours, reference)


@pytest.mark.parametrize(
    "override",
    [
        {"client_cpus": 2},
        {"server_host": "ps2"},
        {"server_threads": 3},
        {"spare_is_reference": True},
        {"think": 1.5},
        {"demand": 0.3},
        {"phase2": 0.0},
        {"target": "serve2"},
        {"calls": 1.0},
        {"reverse_processors": True},
        {"spare_demand": -0.0},
    ],
    ids=lambda override: next(iter(override)),
)
def test_one_field_apart_runs_two_fixed_points(override, fixed_points):
    models = [_model(), _model(**override)]
    batch = solve_lqn_batch(models)
    assert len(fixed_points) == 2
    for model, ours in zip(models, batch):
        _assert_results_equal(ours, solve_lqn(model))


def test_renamed_duplicate_keeps_its_own_names(fixed_points):
    base = _model()
    twin = _renamed(base, "x_")
    batch = solve_lqn_batch([base, twin])
    assert len(fixed_points) == 1
    assert list(batch[1].task_throughputs) == list(twin.tasks)
    assert list(batch[1].entry_service_times) == list(twin.entries)
    assert list(batch[1].processor_utilizations) == list(twin.processors)
    for name in RESULT_MAPPINGS:
        assert list(getattr(batch[1], name).values()) == list(
            getattr(batch[0], name).values()
        )
    _assert_results_equal(batch[1], solve_lqn(twin))


def test_same_object_twice_gets_distinct_dicts(fixed_points):
    model = _model()
    first, second = solve_lqn_batch([model, model])
    assert len(fixed_points) == 1
    _assert_results_equal(first, second)
    for name in RESULT_MAPPINGS:
        assert getattr(first, name) is not getattr(second, name)


def test_invalid_model_after_a_duplicate_still_raises(fixed_points):
    invalid = _model()
    invalid.add_entry("dangling", task="server", calls=[LQNCall("nowhere")])
    with pytest.raises(ModelError, match="unknown call target"):
        solve_lqn_batch([_model(), _renamed(_model(), "x_"), invalid])
    assert fixed_points == []


def test_name_mismatch_is_solved_alone(fixed_points):
    model, odd = _model(), _model()
    odd.processors["alias"] = odd.processors.pop("ps2")
    batch = solve_lqn_batch([model, odd])
    assert len(fixed_points) == 2
    _assert_results_equal(batch[1], solve_lqn(odd))


def test_fuzzed_configurations_match_sequential_solves():
    """Over fuzzed scenarios, a batch padded with shuffled duplicates,
    both the same objects and renamed copies, equals one solo solve per
    model."""
    for seed in range(20):
        scenario = generate_scenario(seed)
        models = configuration_lqns(
            scenario.ftlqn, scenario.mama, scenario.failure_probs,
            scenario.common_causes,
        )
        rng = random.Random(seed)
        copies = [_renamed(model, "copy.") for model in models]
        padded = models + copies + rng.sample(models, len(models))
        rng.shuffle(padded)
        solo = {id(model): solve_lqn(model) for model in models + copies}
        for model, ours in zip(padded, solve_lqn_batch(padded)):
            _assert_results_equal(ours, solo[id(model)])
