"""Synthetic large-N topologies beyond any scanning backend's reach.

The paper's evaluation stops at N = 16 unreliable components because
every §5/§7 evaluator ultimately scans 2^N states.  The ROADMAP's
north star — production topologies with 50–500 unreliable components —
needs cases that *cannot* be brute-forced, to demonstrate that the
symbolic (``bdd``) and bounded backends actually deliver: a
100-component system has 2^100 ≈ 1.3e30 states, beyond any
enumeration, yet both new backends solve it in seconds.

The topology here is deliberately simple and structurally honest: one
deeply replicated service (a primary with N-1 standbys, the paper's
Figure 1 backup pattern scaled two orders of magnitude), analysed
under perfect knowledge.  Its indicator logic compiles to an O(N²)
BDD (at most (N+1)² nodes: 10,101 at N = 100) and its configuration
count grows linearly (server k is in use iff servers 0..k-1 are down
and k is up), so the *analysis* stays exact while the *state space*
is astronomically large — exactly the regime where symbolic
evaluation wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.performability import PerformabilityAnalyzer
from repro.core.progress import ScanCounters
from repro.ftlqn import FTLQNModel, Request

#: Per-server failure probability of the default large-N case.  High
#: enough that deep standbys still carry visible probability mass.
DEFAULT_FAILURE_PROBABILITY = 0.05


def replicated_service_model(
    n_servers: int,
    *,
    failure_probability: float = DEFAULT_FAILURE_PROBABILITY,
) -> tuple[FTLQNModel, dict[str, float]]:
    """A reference user group calling one N-way replicated service.

    Returns the FTLQN model and its failure-probability map.  Only the
    ``n_servers`` server tasks are unreliable (their processors, the
    application tier and the users are perfectly reliable), so the
    state space is exactly 2^n_servers and every distinct operational
    configuration is "the first working server", giving
    ``n_servers + 1`` configurations including system failure.
    """
    if n_servers < 1:
        raise ValueError(f"need at least one server, got {n_servers}")
    ftlqn = FTLQNModel(name=f"replicated-{n_servers}")
    ftlqn.add_processor("pu")
    ftlqn.add_processor("pa")
    ftlqn.add_processor("ps")
    ftlqn.add_task("users", processor="pu", multiplicity=3, is_reference=True)
    ftlqn.add_task("app", processor="pa")
    targets = []
    for index in range(n_servers):
        server = f"srv{index:03d}"
        ftlqn.add_task(server, processor="ps")
        ftlqn.add_entry(f"serve{index:03d}", task=server, demand=1.0)
        targets.append(f"serve{index:03d}")
    ftlqn.add_service("svc", targets=targets)
    ftlqn.add_entry("ea", task="app", demand=1.0, requests=[Request("svc")])
    ftlqn.add_entry("u", task="users", requests=[Request("ea")])
    failure_probs = {
        f"srv{index:03d}": failure_probability for index in range(n_servers)
    }
    return ftlqn, failure_probs


@dataclass(frozen=True)
class LargeScaleCase:
    """Result of one large-N run: the headline scalars plus the cost
    counters that show *how* the backend got there (``bdd_nodes`` /
    ``enumerated_mass`` instead of 2^N states)."""

    n_servers: int
    state_count: int
    method: str
    distinct_configurations: int
    failed_probability: float
    expected_reward: float
    reward_interval: tuple[float, float]
    counters: ScanCounters


def run_largescale(
    n_servers: int = 100,
    *,
    method: str = "bdd",
    epsilon: float = 1e-9,
    failure_probability: float = DEFAULT_FAILURE_PROBABILITY,
) -> LargeScaleCase:
    """Solve the N-way replicated service end to end with one backend.

    With ``method="bdd"`` the result is exact; with ``"bounded"`` the
    reward interval is rigorous with width ≤ ε · R_max.  Scanning
    backends are accepted but will only terminate for small
    ``n_servers`` — that contrast is the point of the experiment.
    """
    ftlqn, failure_probs = replicated_service_model(
        n_servers, failure_probability=failure_probability
    )
    analyzer = PerformabilityAnalyzer(ftlqn, None, failure_probs=failure_probs)
    result = analyzer.solve(method=method, epsilon=epsilon)
    return LargeScaleCase(
        n_servers=n_servers,
        state_count=result.state_count,
        method=result.method,
        distinct_configurations=len(result.records),
        failed_probability=result.failed_probability,
        expected_reward=result.expected_reward,
        reward_interval=result.reward_interval,
        counters=result.counters,
    )
