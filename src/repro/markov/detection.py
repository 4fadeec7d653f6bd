"""Detection/reconfiguration delay extension (§7, following [29]).

The paper's core model assumes reconfiguration is instantaneous once
knowledge allows it; §7 sketches an extension with delays to detect a
failure and to reconfigure, warning of state-space growth.  This module
implements that extension as a Markov-reward model over pairs

    (down-set of application components, active configuration),

where component failures/repairs change the down-set at their rates
while the *active* configuration only catches up at a finite
``detection_rate`` (mean latency = 1/rate, pooling heartbeat interval,
notification propagation and reconfiguration time).  While the active
configuration is stale, a user group earns reward only if everything
the stale configuration routes it through is still up.

As ``detection_rate → ∞`` the expected reward converges to the paper's
instantaneous model (validated in ``tests/markov``); as the rate falls,
reward degrades — quantifying the §7 trade-off between heartbeat
traffic and coverage.

The pair chain is never built.  The down-set D evolves independently
of the active configuration, so its marginal m(D) is the product form
and stationarity decouples into one system per configuration A:

    x_A^T (δI − Q_D) = δ · (m ∘ 1[target(D) = A])^T,   π(D, A) = x_A[D],

with Q_D the Kronecker sum of the components' 2×2 generators.  Solved
through each component's eigenbasis this costs O(k · 2^k · |A|) for k
unreliable components: the §7 blow-up is 2^k in the down-sets alone.
The explicit chain is the oracle's reference arm
(:func:`repro.verify.oracle.detection_delay_reference`).

Knowledge is taken as perfect here (the architecture-coverage and the
latency questions are orthogonal; combining both multiplies the state
space, exactly the blow-up §7 warns about).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from repro.core.configuration import group_support
from repro.errors import ModelError
from repro.ftlqn.fault_graph import PERFECT_KNOWLEDGE, build_fault_graph
from repro.ftlqn.model import FTLQNModel
from repro.markov.availability import ComponentAvailability, validate_rates

@dataclass(frozen=True)
class DelayModelResult:
    """Solution of the detection-delay Markov-reward model.

    Attributes
    ----------
    expected_reward:
        Steady-state expected reward rate with the given detection rate.
    instantaneous_reward:
        The same system with instantaneous reconfiguration (the paper's
        base model) — the detection-rate → ∞ limit.
    stale_probability:
        Steady-state probability that the active configuration differs
        from the one instantaneous reconfiguration would use.
    state_count:
        Number of reachable (down-set, active configuration) states:
        2^k down-sets times the distinct target configurations
        (counting system failure as one).
    """

    expected_reward: float
    instantaneous_reward: float
    stale_probability: float
    state_count: int


def detection_delay_model(
    ftlqn: FTLQNModel,
    rates: Mapping[str, ComponentAvailability],
    group_rewards: Mapping[frozenset[str], Mapping[str, float]],
    *,
    detection_rate: float,
) -> DelayModelResult:
    """Solve the delay extension for an FTLQN system.

    Parameters
    ----------
    rates:
        Failure/repair rates of the unreliable application components
        (tasks/processors absent from the mapping never fail).
    group_rewards:
        Per operational configuration, the reward rate earned by each
        user group while its path is up (e.g. w_g · f_g from the LQN
        solution of that configuration).
    detection_rate:
        Rate at which a pending reconfiguration completes (1 / mean
        detection+reconfiguration latency).
    """
    if not (math.isfinite(detection_rate) and detection_rate > 0):
        raise ModelError(
            f"detection_rate must be positive and finite, "
            f"got {detection_rate!r}"
        )
    component_names = ftlqn.component_names()
    unknown = [name for name in rates if name not in component_names]
    if unknown:
        raise ModelError(f"rates mention unknown components: {sorted(unknown)}")
    for name, availability in rates.items():
        validate_rates(
            availability.failure_rate, availability.repair_rate,
            component=name,
        )

    # A component that never fails is never in a reachable down-set.
    names = [name for name in sorted(rates) if rates[name].failure_rate > 0]
    k = len(names)
    size = 1 << k
    # Down-set i holds names[c] iff bit k-1-c is set, so a C-order
    # reshape to (2,) * k puts component c on axis c.
    bits = {name: 1 << (k - 1 - c) for c, name in enumerate(names)}

    graph = build_fault_graph(ftlqn)
    leaves = [leaf.name for leaf in graph.leaves()]
    # Column 0 is system failure (configuration None), which earns 0.
    column_of: dict[frozenset[str] | None, int] = {None: 0}
    target = np.empty(size, dtype=np.intp)
    for index in range(size):
        down = {name for name in names if index & bits[name]}
        configuration = graph.evaluate(
            {leaf: leaf not in down for leaf in leaves}, PERFECT_KNOWLEDGE
        ).configuration
        target[index] = column_of.setdefault(configuration, len(column_of))
    labels = list(column_of)

    # r(D, A): a group earns its reward while A's route for it is up.
    states = np.arange(size)
    reward = np.zeros((size, len(labels)))
    for column, configuration in enumerate(labels[1:], start=1):
        rewards = group_rewards.get(configuration)
        if rewards is None:
            raise ModelError(
                f"group_rewards missing configuration {sorted(configuration)}"
            )
        for group, value in rewards.items():
            support = group_support(ftlqn, configuration, group)
            mask = sum(bits.get(name, 0) for name in support)
            reward[:, column] += value * ((states & mask) == 0)

    unavailability = [rates[name].unavailability for name in names]
    probability = np.ones(1)
    for u in unavailability:
        probability = np.outer(probability, (1.0 - u, u)).ravel()
    coupling = np.zeros((size, len(labels)))
    coupling[states, target] = probability
    pi = _solve_columns(
        coupling,
        unavailability,
        [rates[name].failure_rate + rates[name].repair_rate for name in names],
        detection_rate,
    )

    on_target = float(pi[states, target].sum())
    return DelayModelResult(
        expected_reward=float((pi * reward).sum()),
        instantaneous_reward=float(probability @ reward[states, target]),
        stale_probability=max(0.0, 1.0 - on_target),
        state_count=size * len(np.unique(target)),
    )


def _solve_columns(
    coupling: np.ndarray,
    unavailability: list[float],
    decay: list[float],
    detection_rate: float,
) -> np.ndarray:
    """Solve x_A^T (δI − Q_D) = δ · coupling_A^T for every column A.

    Component c's generator [[−λ, λ], [μ, −μ]] (up, down) has
    eigenvalues 0 and −(λ+μ) and eigenbasis V = [[1, u], [1, u − 1]],
    V^{-1} = [[1 − u, u], [1, −1]] (u = λ/(λ+μ)), so
    δ(δI − Q_D)^{-1} = (⊗V) diag(δ / (δ + s)) (⊗V^{-1}) with s the
    summed λ+μ of each eigen-index: no 2^k × 2^k matrix is formed.
    """
    size, width = coupling.shape
    scale = np.zeros(1)
    for rate in decay:
        scale = np.add.outer(scale, (0.0, rate)).ravel()
    x = coupling
    for c, u in enumerate(unavailability):
        basis = np.array([[1.0, u], [1.0, u - 1.0]])
        x = np.einsum("aib,ij->ajb", x.reshape(1 << c, 2, -1), basis)
    shrink = detection_rate / (detection_rate + scale)
    x = x.reshape(size, width) * shrink[:, None]
    for c, u in enumerate(unavailability):
        inverse = np.array([[1.0 - u, u], [1.0, -1.0]])
        x = np.einsum("aib,ij->ajb", x.reshape(1 << c, 2, -1), inverse)
    return x.reshape(size, width)
