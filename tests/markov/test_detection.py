"""The §7 detection-delay Markov-reward extension."""

import pytest

from repro.core import PerformabilityAnalyzer
from repro.errors import ModelError
from repro.experiments.figure1 import figure1_failure_probs
from repro.markov.availability import ComponentAvailability
from repro.markov.detection import detection_delay_model
from repro.verify.oracle import detection_delay_reference


@pytest.fixture(scope="module")
def inputs():
    from repro.experiments.figure1 import figure1_system

    ftlqn = figure1_system()
    probs = figure1_failure_probs()
    analyzer = PerformabilityAnalyzer(ftlqn, None, failure_probs=probs)
    result = analyzer.solve()
    group_rewards = {
        record.configuration: dict(record.throughputs)
        for record in result.records
        if record.configuration is not None
    }
    rates = {
        name: ComponentAvailability.from_probability(p)
        for name, p in probs.items()
    }
    return ftlqn, rates, group_rewards, result.expected_reward


def test_fast_detection_approaches_instantaneous(inputs):
    ftlqn, rates, rewards, expected = inputs
    result = detection_delay_model(
        ftlqn, rates, rewards, detection_rate=10_000.0
    )
    assert result.expected_reward == pytest.approx(
        result.instantaneous_reward, abs=1e-3
    )
    assert result.instantaneous_reward == pytest.approx(expected, abs=1e-6)


def test_reward_monotone_in_detection_rate(inputs):
    ftlqn, rates, rewards, _ = inputs
    values = [
        detection_delay_model(
            ftlqn, rates, rewards, detection_rate=rate
        ).expected_reward
        for rate in (0.1, 1.0, 10.0, 100.0)
    ]
    assert values == sorted(values)


def test_stale_probability_monotone_in_delay(inputs):
    ftlqn, rates, rewards, _ = inputs
    fast = detection_delay_model(ftlqn, rates, rewards, detection_rate=100.0)
    slow = detection_delay_model(ftlqn, rates, rewards, detection_rate=0.5)
    assert slow.stale_probability > fast.stale_probability


def test_invalid_rate_rejected(inputs):
    ftlqn, rates, rewards, _ = inputs
    with pytest.raises(ModelError, match="detection_rate"):
        detection_delay_model(ftlqn, rates, rewards, detection_rate=0.0)


def test_unknown_component_rejected(inputs):
    ftlqn, rates, rewards, _ = inputs
    bad = dict(rates)
    bad["ghost"] = ComponentAvailability.from_probability(0.1)
    with pytest.raises(ModelError, match="unknown components"):
        detection_delay_model(ftlqn, bad, rewards, detection_rate=1.0)


def test_state_count_reported(inputs):
    ftlqn, rates, rewards, _ = inputs
    result = detection_delay_model(ftlqn, rates, rewards, detection_rate=1.0)
    # 2^8 down-sets times 7 targets (6 configurations plus failure).
    assert result.state_count == 1792 == 2**8 * 7


@pytest.mark.parametrize("never_fails", [False, True])
@pytest.mark.parametrize("detection_rate", [0.1, 1.0, 50.0, 1e4])
def test_matches_the_explicit_chain(inputs, detection_rate, never_fails):
    ftlqn, rates, rewards, _ = inputs
    if never_fails:
        rates = dict(rates)
        rates["Server1"] = ComponentAvailability(0.0, 1.0)
    result = detection_delay_model(
        ftlqn, rates, rewards, detection_rate=detection_rate
    )
    reference = detection_delay_reference(
        ftlqn, rates, rewards, detection_rate=detection_rate
    )
    assert result.state_count == reference.state_count
    assert result.state_count == (896 if never_fails else 1792)
    for measure in (
        "expected_reward", "instantaneous_reward", "stale_probability"
    ):
        assert getattr(result, measure) == pytest.approx(
            getattr(reference, measure), abs=1e-12
        )


def test_no_unreliable_components_is_one_state(inputs):
    ftlqn, _, rewards, _ = inputs
    result = detection_delay_model(ftlqn, {}, rewards, detection_rate=2.0)
    assert result.state_count == 1
    assert result.stale_probability == 0.0
    assert result.expected_reward == result.instantaneous_reward
    assert result.expected_reward > 0


def test_missing_group_rewards_rejected(inputs):
    ftlqn, rates, rewards, _ = inputs
    partial = dict(rewards)
    del partial[next(iter(partial))]
    with pytest.raises(ModelError, match="group_rewards missing configuration"):
        detection_delay_model(ftlqn, rates, partial, detection_rate=1.0)
