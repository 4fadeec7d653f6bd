"""The four workloads of the benchmark.

Each runs as a closed loop: one client issues an operation, waits for
its answer, then issues the next.  A workload object is driven by
``run.py`` in this order:

``setup(seed, traced)``
    Everything a user pays once: imports, model and document build,
    daemon boot and cache warm-up.  Timed as ``setup_s``.
``operations(seed)``
    The endless, seed-determined stream of operation inputs.
``run(item)``
    One timed operation; returns the program's answer.
``digest(item, answer)``
    Outside timing: the compact record kept for the correctness gate
    and for the traced run's bit-for-bit comparison.
``check(records, rng)``
    The correctness gate over the kept records; returns one message per
    wrong answer.
``close()``
    Stops anything ``setup`` started; returns the spans a traced daemon
    recorded (empty for in-process workloads).

Every call uses the library's default backend unless the workload says
otherwise, so a later change of default shows up here as a user-visible
change.  The repro package is imported inside ``setup`` so that import
time counts as set-up.
"""

from __future__ import annotations

import ctypes
import http.client
import itertools
import json
import math
import os
import random
import resource
import select
import signal
import subprocess
import sys
from collections import deque
from collections.abc import Iterator, Mapping

#: Absolute agreement demanded of every checked number, scaled by the
#: magnitude when that exceeds one.
TOLERANCE = 1e-12

#: The five §6 cases; ``None`` is the perfect-knowledge analysis.
PAPER_CASES = (None, "centralized", "distributed", "hierarchical", "network")

#: Expected reward rates of the §6 cases as this reproduction computes
#: them (Table 2) with the default backend.
PAPER_REWARDS = {
    None: 0.8947418130443922,
    "centralized": 0.6005975402526904,
    "distributed": 0.5273783925593446,
    "hierarchical": 0.46807088292773463,
    "network": 0.6125647053876379,
}

#: ``repro temporal``'s default grid: 9 points over [0, 10].
TEMPORAL_HORIZON = 10.0
TEMPORAL_POINTS = 9

#: Replicas of the large workload: 2^100 states.
REPLICAS = 100


def close_enough(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOLERANCE * max(1.0, abs(reference))


def scaled_overrides(
    baseline: Mapping[str, float], rng: random.Random
) -> dict[str, float]:
    """Scale each baseline failure probability by its own factor in
    [0.5, 2]; the keys are exactly the baseline's."""
    return {
        name: probability * rng.uniform(0.5, 2.0)
        for name, probability in sorted(baseline.items())
    }


def replicated_errors(
    p: float,
    replicas: int,
    configurations: Mapping[int | None, tuple[float, float]],
    expected_reward: float,
) -> list[str]:
    """Check a replicated-service answer against its closed form.

    ``configurations`` maps the index of the server in use (``None`` for
    system failure) to (probability, reward).  Server k is in use iff
    servers 0..k-1 are down and k is up: P(C_k) = p^k (1-p), every
    operational configuration earns the nominal reward, and the
    expected reward is (1 - p^replicas) times it.
    """
    errors = []
    expected_keys = set(range(replicas)) | {None}
    if set(configurations) != expected_keys:
        return [f"configurations {sorted(configurations, key=str)} are not "
                f"the {replicas} servers plus failure"]
    nominal = configurations[0][1]
    for k, (probability, reward) in configurations.items():
        closed = p**replicas if k is None else p**k * (1.0 - p)
        if not close_enough(probability, closed):
            errors.append(f"P(C_{k}) = {probability!r}, closed form {closed!r}")
        if k is not None and not close_enough(reward, nominal):
            errors.append(f"reward of C_{k} = {reward!r}, nominal {nominal!r}")
    closed = (1.0 - p**replicas) * nominal
    if not close_enough(expected_reward, closed):
        errors.append(f"expected reward {expected_reward!r}, closed form {closed!r}")
    return errors


def _result_key(result) -> tuple:
    return (
        result.expected_reward,
        tuple((r.label(), r.probability, r.reward) for r in result.records),
    )


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PaperCold:
    """``repro analyze`` on the §6 cases, nothing kept between operations.

    Operation: parse the Figure-1 FTLQN document and the case's MAMA
    document (none for perfect knowledge), then a fresh
    ``PerformabilityAnalyzer(...).solve()`` with the §6 failure data.
    The cases come round-robin in a seed-shuffled order.
    """

    name = "paper-cold"
    in_process = True

    def setup(self, seed: int, traced: bool) -> None:
        from repro.core.performability import PerformabilityAnalyzer
        from repro.experiments.architectures import ARCHITECTURE_BUILDERS
        from repro.experiments.figure1 import figure1_failure_probs, figure1_system
        from repro.ftlqn import serialize as ftlqn_serialize
        from repro.mama import serialize as mama_serialize

        self._analyzer = PerformabilityAnalyzer
        self._ftlqn_serialize = ftlqn_serialize
        self._mama_serialize = mama_serialize
        self._model = ftlqn_serialize.model_to_json(figure1_system())
        self._documents = {None: None}
        self._probs = {None: figure1_failure_probs(None)}
        for key, build in ARCHITECTURE_BUILDERS.items():
            mama = build()
            self._documents[key] = mama_serialize.mama_to_json(mama)
            self._probs[key] = figure1_failure_probs(mama)

    def operations(self, seed: int) -> Iterator:
        order = list(PAPER_CASES)
        random.Random(seed).shuffle(order)
        return itertools.cycle(order)

    def run(self, case):
        # Module attributes, not imported names: the traced run wraps them.
        ftlqn = self._ftlqn_serialize.model_from_json(self._model)
        document = self._documents[case]
        mama = (
            self._mama_serialize.mama_from_json(document)
            if document is not None
            else None
        )
        return self._analyzer(ftlqn, mama, failure_probs=self._probs[case]).solve()

    def digest(self, case, result):
        return case, _result_key(result)

    def check(self, records, rng) -> list[str]:
        return [
            f"{case or 'perfect'}: reward {key[0]!r} != {PAPER_REWARDS[case]!r}"
            for case, key in records
            if not close_enough(key[0], PAPER_REWARDS[case])
        ]

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()

    def close(self) -> list:
        return []


def _die_with_parent() -> None:
    # Linux prctl(PR_SET_PDEATHSIG, SIGTERM): should the benchmark be
    # killed, its daemon does not outlive it.
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)


class _Daemon:
    """One ``repro serve --port 0`` process (or the traced bootstrap)."""

    def __init__(self, traced: bool, timeout: float = 120.0) -> None:
        root = os.getcwd()
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        if traced:
            command = [
                sys.executable,
                os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py"),
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.traced = traced
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, preexec_fn=_die_with_parent,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def request(self, method: str, path: str, payload: object = None) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> list:
        """Stop the daemon and wait for it; returns a traced daemon's spans."""
        rows: list = []
        if self.traced and self.process.poll() is None:
            # Closing stdin asks the bootstrap for its span dump.
            try:
                output, _ = self.process.communicate(timeout=60)
                lines = output.strip().splitlines()
                rows = json.loads(lines[-1]) if lines else []
            except subprocess.TimeoutExpired:
                pass
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        return rows


class WhatifService:
    """Warm what-if questions to ``repro serve`` over HTTP.

    Operation: one ``POST /analyze`` naming a catalog scenario and one of
    its architectures, with every baseline failure probability of that
    architecture scaled by a seeded factor in [0.5, 2].  Every fourth
    request repeats one of the four latest fresh points (a scan-cache
    hit).  Fresh points visit the (scenario, architecture) pairs
    round-robin in a seed-shuffled order.  One client, one connection
    per request (the daemon closes each), no overlap.
    """

    name = "whatif-service"
    in_process = False

    def setup(self, seed: int, traced: bool) -> None:
        self._daemon = _Daemon(traced)
        try:
            self.pairs = self._warm_up()
        except BaseException:
            self._daemon.stop()
            raise

    def _warm_up(self) -> list[tuple[str, str, dict[str, float]]]:
        pairs = []
        for scenario in sorted(
            self._daemon.request("GET", "/catalog")["scenarios"],
            key=lambda entry: entry["name"],
        ):
            for architecture in scenario["architectures"]:
                # The untimed warm-up request; its effective map is the
                # baseline restricted to the architecture's components.
                warm = self._daemon.request(
                    "POST", "/analyze",
                    {"scenario": scenario["name"], "architecture": architecture},
                )
                pairs.append(
                    (scenario["name"], architecture, warm["effective_failure_probs"])
                )
        return pairs

    def operations(self, seed: int) -> Iterator:
        rng = random.Random(seed)
        order = list(range(len(self.pairs)))
        rng.shuffle(order)
        recent: deque = deque(maxlen=4)
        fresh = itertools.cycle(order)
        for index in itertools.count():
            if index % 4 == 3:
                yield rng.choice(list(recent))
                continue
            scenario, architecture, baseline = self.pairs[next(fresh)]
            payload = {
                "scenario": scenario,
                "architecture": architecture,
                "failure_probs": scaled_overrides(baseline, rng),
            }
            recent.append(payload)
            yield payload

    def run(self, payload):
        return self._daemon.request("POST", "/analyze", payload)

    def digest(self, payload, response):
        response = dict(response)
        del response["seconds"]
        return payload, response

    def check(self, records, rng) -> list[str]:
        errors = []
        fresh: dict[str, tuple[dict, dict]] = {}
        for payload, response in records:
            if response["effective_failure_probs"] != payload["failure_probs"]:
                errors.append("the daemon solved other probabilities than sent")
            fresh.setdefault(json.dumps(payload, sort_keys=True), (payload, response))
        # The enumeration arm costs seconds per point: re-solve a sample.
        for payload, response in rng.sample(list(fresh.values()), min(3, len(fresh))):
            wrong = self._enumeration_errors(payload, response)
            if wrong:
                errors.append("; ".join(wrong))
        return errors

    @staticmethod
    def _enumeration_errors(payload, response) -> list[str]:
        from repro.core.dependency import CommonCause
        from repro.core.performability import PerformabilityAnalyzer
        from repro.core.rewards import weighted_throughput_reward
        from repro.service.catalog import load_scenario

        bundle = load_scenario(payload["scenario"])
        weights = response["weights"]
        reference = PerformabilityAnalyzer(
            bundle.ftlqn,
            bundle.architectures[payload["architecture"]],
            failure_probs=response["effective_failure_probs"],
            common_causes=[
                CommonCause(c["name"], c["probability"], tuple(c["components"]))
                for c in response["common_causes"]
            ],
            reward=weighted_throughput_reward(weights) if weights else None,
        ).solve(method="enumeration")
        label = f"{payload['scenario']}/{payload['architecture']}"
        errors = []
        if not close_enough(response["expected_reward"], reference.expected_reward):
            errors.append(
                f"{label}: reward {response['expected_reward']!r} != "
                f"enumeration {reference.expected_reward!r}"
            )
        served = {
            tuple(record["configuration"]) if record["configuration"] else None:
            record["probability"]
            for record in response["result"]["records"]
        }
        solved = {
            tuple(sorted(r.configuration)) if r.configuration else None: r.probability
            for r in reference.records
        }
        if served.keys() != solved.keys() or not all(
            close_enough(served[key], solved[key]) for key in solved
        ):
            errors.append(f"{label}: configuration probabilities differ from enumeration")
        return errors

    def peak_rss_mb(self) -> float:
        return self._daemon.peak_rss_mb()

    def close(self) -> list:
        return self._daemon.stop()


class TemporalCurve:
    """The ``repro temporal`` question over warm per-architecture analyzers.

    Operation: lift seeded per-component probabilities (the §6 values
    scaled by factors in [0.5, 2]) and repair rates (in [0.5, 2]) with
    ``ComponentAvailability.from_probability``; then R(t) on the 9-point
    grid over [0, 10], the steady state, and one erosion point at the
    architecture's heartbeat-derived detection latency.  The four MAMA
    architectures of Figures 7-10 come round-robin in a seed-shuffled
    order.
    """

    name = "temporal-curve"
    in_process = True

    def setup(self, seed: int, traced: bool) -> None:
        from repro.core.performability import PerformabilityAnalyzer
        from repro.core.sweep import SweepEngine, SweepPoint
        from repro.core.temporal import (
            TemporalAnalyzer,
            architecture_detection_latency,
            time_grid,
        )
        from repro.experiments.architectures import ARCHITECTURE_BUILDERS
        from repro.experiments.figure1 import figure1_failure_probs, figure1_system
        from repro.markov.availability import ComponentAvailability
        from repro.sim.heartbeat import HeartbeatConfig

        self._analyzer = PerformabilityAnalyzer
        self._temporal = TemporalAnalyzer
        self._lift = ComponentAvailability.from_probability
        self._latency = architecture_detection_latency
        self._heartbeat = HeartbeatConfig(period=0.5, misses=2, hop_delay=0.1)
        self._grid = time_grid(TEMPORAL_HORIZON, TEMPORAL_POINTS)
        self._ftlqn = figure1_system()
        self._mamas = {key: build() for key, build in ARCHITECTURE_BUILDERS.items()}
        self._baseline = {key: figure1_failure_probs(mama) for key, mama in self._mamas.items()}
        application = set(self._ftlqn.component_names())
        self._engines = {}
        for key, mama in self._mamas.items():
            engine = SweepEngine(self._ftlqn, {key: mama})
            analyzer = TemporalAnalyzer(
                self._ftlqn,
                rates={n: self._lift(p) for n, p in self._baseline[key].items()},
                engine=engine,
            )
            # Structures and the LQN cache: the curve's architecture and
            # the perfect-knowledge application-only solve behind the
            # erosion point.
            analyzer.steady_state(architecture=key)
            engine.run([SweepPoint(
                name="warm", architecture=None,
                failure_probs={n: p for n, p in self._baseline[key].items()
                               if n in application},
            )])
            self._engines[key] = engine

    def operations(self, seed: int) -> Iterator:
        rng = random.Random(seed)
        order = sorted(self._mamas)
        rng.shuffle(order)
        for key in itertools.cycle(order):
            probs = scaled_overrides(self._baseline[key], rng)
            repair = {name: rng.uniform(0.5, 2.0) for name in sorted(probs)}
            yield key, probs, repair, rng.randrange(TEMPORAL_POINTS)

    def run(self, item):
        key, probs, repair, _sample = item
        analyzer = self._temporal(
            self._ftlqn,
            rates={n: self._lift(p, repair_rate=repair[n]) for n, p in probs.items()},
            engine=self._engines[key],
        )
        curve = analyzer.evaluate(self._grid, architecture=key)
        latency = self._latency(self._mamas[key], self._heartbeat)
        (erosion,) = analyzer.erosion_curve([latency])
        return analyzer, curve, erosion

    def digest(self, item, answer):
        key, _probs, _repair, sample = item
        analyzer, curve, erosion = answer
        t = self._grid[sample]
        return (
            key,
            tuple(point.expected_reward for point in curve.points),
            curve.steady.expected_reward,
            erosion.expected_reward,
            sample,
            analyzer.probabilities_at(math.inf),
            analyzer.probabilities_at(t),
        )

    def check(self, records, rng) -> list[str]:
        errors = []
        for key, rewards, steady, _erosion, sample, at_inf, at_t in records:
            mama = self._mamas[key]
            one_shot = self._analyzer(self._ftlqn, mama, failure_probs=at_inf).solve()
            static = self._analyzer(self._ftlqn, mama, failure_probs=at_t).solve()
            if not close_enough(steady, one_shot.expected_reward):
                errors.append(f"{key}: steady {steady!r} != static {one_shot.expected_reward!r}")
            elif not close_enough(rewards[sample], static.expected_reward):
                errors.append(
                    f"{key}: R(t={self._grid[sample]}) {rewards[sample]!r} != "
                    f"one-shot {static.expected_reward!r}"
                )
        return errors

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()

    def close(self) -> list:
        return []


class ReplicatedLarge:
    """A 100-way replicated service, 2^100 states, exact via ``bdd``.

    Operation: build ``replicated_service_model(100)`` with a seeded
    per-server failure probability in [0.02, 0.2] and solve it with
    ``method="bdd"``, the only backend that finishes at this size.
    """

    name = "replicated-large"
    in_process = True

    def setup(self, seed: int, traced: bool) -> None:
        from repro.core.performability import PerformabilityAnalyzer
        from repro.experiments.largescale import replicated_service_model

        self._analyzer = PerformabilityAnalyzer
        self._model = replicated_service_model

    def operations(self, seed: int) -> Iterator:
        rng = random.Random(seed)
        while True:
            yield rng.uniform(0.02, 0.2)

    def run(self, p: float):
        ftlqn, failure_probs = self._model(REPLICAS, failure_probability=p)
        return self._analyzer(ftlqn, None, failure_probs=failure_probs).solve(method="bdd")

    def digest(self, p, result):
        configurations = {}
        for record in result.records:
            k = None
            if record.configuration is not None:
                (entry,) = [n for n in record.configuration if n.startswith("serve")]
                k = int(entry[len("serve"):])
            configurations[k] = (record.probability, record.reward)
        return p, result.expected_reward, configurations

    def check(self, records, rng) -> list[str]:
        errors = []
        for p, expected_reward, configurations in records:
            wrong = replicated_errors(p, REPLICAS, configurations, expected_reward)
            if wrong:
                errors.append(f"p={p!r}: " + "; ".join(wrong))
        return errors

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()

    def close(self) -> list:
        return []


WORKLOADS = {
    workload.name: workload
    for workload in (PaperCold, WhatifService, TemporalCurve, ReplicatedLarge)
}
