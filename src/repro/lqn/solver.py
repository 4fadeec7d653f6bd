"""Method-of-Layers-style fixed-point solver for LQN models.

The solver alternates three estimates until they agree:

1. **Entry service times** — bottom-up through the (acyclic) call
   graph: an invocation of entry *e* occupies its task thread for
   ``S_e = d_e + W_proc(e) + Σ_f n_ef · (W_task(τ_e → τ_f) + S_f)``,
   i.e. its processor demand plus processor queueing plus, for every
   synchronous call, queueing at the target task plus the target's own
   service time (blocking RPC semantics).
2. **Software submodels** — one closed queueing network per server
   task: the station is the task (``multiplicity`` threads, FCFS), the
   customer classes are its direct caller tasks, each with its thread
   population and a *surrogate think time* equal to the rest of its
   cycle.  Solved with Bard–Schweitzer AMVA; yields the per-visit
   waiting ``W_task``.
3. **Hardware submodels** — one closed network per processor: the
   station is the processor, classes are the hosted tasks, populations
   their thread counts, think times the non-processor part of their
   cycles; yields ``W_proc``.

Waiting-time updates are damped to stabilise the fixed point.  The
approach is the standard decomposition used by LQNS/Method of Layers
[14] (Rolia & Sevcik's MOL; Woodside's SRVN), reimplemented from the
published equations.

Batching
--------
Within one outer iteration every submodel is *independent*: a software
submodel reads and writes only the ``wait_task[(caller, server)]``
entries of its own server, a hardware submodel only the ``wait_proc``
entries of its own processor, and both read entry services and rates
that are fixed by steps 1–2.  :func:`solve_lqn_batch` exploits this by
building the submodel networks of *all* models still iterating and
solving them in **one** :func:`~repro.lqn.mva.schweitzer_mva_batch`
call per outer sweep — each model's trajectory, and therefore its
result, is exactly what a sequential :func:`solve_lqn` produces.

Deduplication
-------------
The solver reads names only as dict keys and computes in insertion
order, so models with the same :func:`_canonical_form` (the positional
tuple of everything it reads, floats by bit pattern) follow
bit-identical trajectories.  :func:`solve_lqn_batch` runs one fixed
point per form and gives every other model of the class the
representative's numbers under its own names: replicas and
primary/backup servers with equal parameters collapse this way.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import SolverError
from repro.lqn.model import LQNModel
from repro.lqn.mva import (
    Discipline,
    Station,
    StationKind,
    default_initial_queue,
    schweitzer_mva_batch,
)
from repro.lqn.results import LQNResults

#: Throughputs below this are treated as "task inactive".
_EPSILON = 1e-12


def _reference_visits(model: LQNModel) -> dict[str, dict[str, float]]:
    """V[r][e]: invocations of entry e per cycle of reference task r."""
    visits: dict[str, dict[str, float]] = {}

    def accumulate(table: dict[str, float], entry_name: str, factor: float) -> None:
        table[entry_name] = table.get(entry_name, 0.0) + factor
        for call in model.entries[entry_name].calls:
            accumulate(table, call.target, factor * call.mean_calls)

    for reference in model.reference_tasks():
        table: dict[str, float] = {}
        for entry in model.entries_of_task(reference.name):
            accumulate(table, entry.name, 1.0)
        visits[reference.name] = table
    return visits


def solve_lqn(
    model: LQNModel,
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    damping: float = 0.5,
    mva_tolerance: float = 1e-10,
    mva_max_iterations: int = 100_000,
) -> LQNResults:
    """Solve an LQN model for steady-state throughputs and delays.

    Parameters
    ----------
    tolerance:
        Outer fixed-point tolerance on throughputs and waiting times.
    max_iterations:
        Outer iteration budget; the result reports ``converged=False``
        if exceeded (it does not raise — a slightly unconverged solution
        is still informative for screening configurations).
    damping:
        Fraction of each newly solved waiting time blended into the
        estimate per outer iteration (0 < damping ≤ 1).
    mva_tolerance, mva_max_iterations:
        Convergence budget of the inner submodel AMVA solves.  An inner
        solve that exhausts its budget is a *soft* failure: the outer
        iteration continues with the best available estimates and the
        result reports ``converged=False``.  Each inner solve is seeded
        with the queue lengths of the same submodel from the previous
        outer iteration.

    Raises
    ------
    ModelError
        If the model fails validation.
    SolverError
        If a reference class has a degenerate (zero-length) cycle.
    """
    return solve_lqn_batch(
        [model],
        tolerance=tolerance,
        max_iterations=max_iterations,
        damping=damping,
        mva_tolerance=mva_tolerance,
        mva_max_iterations=mva_max_iterations,
    )[0]


@dataclass
class _SubmodelSpec:
    """One submodel network queued for the shared batched AMVA call."""

    state: "_ModelState"
    kind: str  # "task" | "proc"
    server: str  # server task or processor name
    classes: list[str]
    visit_counts: list[float]
    services: list[float]  # per-call phase-1 services (software only)
    populations: list[float]
    thinks: list[float]
    multiplicity: int
    phase2_correction: float = 0.0


@dataclass
class _ModelState:
    """Mutable per-model solver state for the lockstep batch."""

    model: LQNModel
    visits: dict[str, dict[str, float]]
    entry_order: list[str]
    wait_task: dict[tuple[str, str], float]
    wait_proc: dict[str, float]
    throughput_ref: dict[str, float]
    service: dict[str, float]
    busy: dict[str, float]
    entry_rate: dict[str, float]
    task_rate: dict[str, float]
    iterations_used: int
    converged: bool = False
    active: bool = True
    inner_failed: bool = False
    # (kind, server) -> (class-name signature, final queue lengths) of
    # the previous outer iteration, seeding the next inner solve.
    inner_queues: dict[tuple[str, str], tuple[tuple[str, ...], np.ndarray]] = field(
        default_factory=dict
    )


def _init_state(model: LQNModel, max_iterations: int) -> _ModelState:
    return _ModelState(
        model=model,
        visits=_reference_visits(model),
        entry_order=_topological_entries(model),
        wait_task={},
        wait_proc={name: 0.0 for name in model.tasks},
        throughput_ref={r.name: 0.0 for r in model.reference_tasks()},
        service={name: 0.0 for name in model.entries},
        busy={name: 0.0 for name in model.entries},
        entry_rate={name: 0.0 for name in model.entries},
        task_rate={name: 0.0 for name in model.tasks},
        iterations_used=max_iterations,
    )


def solve_lqn_batch(
    models: Sequence[LQNModel],
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    damping: float = 0.5,
    mva_tolerance: float = 1e-10,
    mva_max_iterations: int = 100_000,
) -> list[LQNResults]:
    """Solve several LQN models in lockstep with shared batched AMVA.

    Semantically equivalent to ``[solve_lqn(m, ...) for m in models]``
    — each model follows exactly the trajectory the sequential solver
    would give it — but every outer sweep solves the submodel networks
    of *all* still-active models in one
    :func:`~repro.lqn.mva.schweitzer_mva_batch` call, replacing
    hundreds of small Python fixed points per configuration sweep with
    a handful of vectorised ones.  Models with equal canonical forms
    share one fixed point; each model still gets its own result dicts.

    See :func:`solve_lqn` for the parameters.
    """
    if not 0 < damping <= 1:
        raise SolverError("damping must be in (0, 1]")
    for model in models:
        model.validate()
    classes: dict[object, int] = {}
    owners = [classes.setdefault(_canonical_form(m), len(classes)) for m in models]
    representatives: dict[int, LQNModel] = {}
    for owner, model in zip(owners, models):
        representatives.setdefault(owner, model)
    states = [_init_state(m, max_iterations) for m in representatives.values()]

    for iteration in range(max_iterations):
        live = [s for s in states if s.active]
        if not live:
            break
        deltas: dict[int, float] = {}
        specs: list[_SubmodelSpec] = []
        for state in live:
            deltas[id(state)] = _update_services_and_rates(state)
            specs.extend(_software_specs(state))
            specs.extend(_processor_specs(state))

        if specs:
            _solve_specs(
                specs,
                damping=damping,
                deltas=deltas,
                mva_tolerance=mva_tolerance,
                mva_max_iterations=mva_max_iterations,
            )

        for state in live:
            if deltas[id(state)] < tolerance:
                state.iterations_used = iteration + 1
                state.converged = True
                state.active = False

    solved = [
        _collect_results(
            state,
            state.iterations_used,
            state.converged and not state.inner_failed,
        )
        for state in states
    ]
    # The representative takes its solved result; every later model of
    # its class gets fresh dicts under its own names.
    fresh = dict(enumerate(solved))
    return [
        fresh.pop(owner, None) or _relabel(solved[owner], model)
        for owner, model in zip(owners, models)
    ]


def _canonical_form(model: LQNModel) -> object:
    """The positional tuple of everything the solver reads.

    Processors, tasks and entries are referenced by insertion position,
    and scalars by type and value, floats by ``float.hex`` (so ``0.0``
    and ``-0.0`` differ).  A model whose keys differ from its items'
    names, or that refers to an unknown name, is not read purely by
    position: it gets a unique ``object()`` and is solved alone.
    """
    tables = (model.processors, model.tasks, model.entries)
    if any(key != item.name for table in tables for key, item in table.items()):
        return object()
    processor_at, task_at, entry_at = (
        {name: position for position, name in enumerate(table)}
        for table in tables
    )
    try:
        return (
            tuple(_bits(p.multiplicity) for p in model.processors.values()),
            tuple(
                (processor_at[t.processor], _bits(t.multiplicity),
                 _bits(t.is_reference), _bits(t.think_time))
                for t in model.tasks.values()
            ),
            tuple(
                (task_at[e.task], _bits(e.demand), _bits(e.phase2_demand),
                 tuple((entry_at[c.target], _bits(c.mean_calls))
                       for c in e.calls))
                for e in model.entries.values()
            ),
        )
    except KeyError:
        return object()


def _bits(value: object) -> tuple:
    """A scalar as ``(type, value)``, floats by bit pattern."""
    return type(value), value.hex() if isinstance(value, float) else value


#: Each result mapping and the model table that keys it.
_RESULT_KEYS = (
    ("task_throughputs", "tasks"), ("entry_throughputs", "entries"),
    ("entry_service_times", "entries"), ("entry_waiting_times", "entries"),
    ("task_utilizations", "tasks"), ("processor_utilizations", "processors"),
)


def _relabel(result: LQNResults, model: LQNModel) -> LQNResults:
    """``result`` of an equal-form model, keyed by ``model``'s names."""
    return replace(result, **{
        name: dict(zip(getattr(model, table), getattr(result, name).values()))
        for name, table in _RESULT_KEYS
    })


def _update_services_and_rates(state: _ModelState) -> float:
    """Steps 1–2: entry services bottom-up, then reference throughputs
    and per-entry/per-task rates.  Returns the throughput delta."""
    model = state.model
    service, busy = state.service, state.busy
    wait_task, wait_proc = state.wait_task, state.wait_proc

    for name in state.entry_order:
        entry = model.entries[name]
        total = entry.demand
        if entry.demand > 0:
            total += wait_proc[entry.task]
        for call in entry.calls:
            target = model.entries[call.target]
            wait = wait_task.get((entry.task, target.task), 0.0)
            total += call.mean_calls * (wait + service[call.target])
        service[name] = total
        second = entry.phase2_demand
        if second > 0:
            second += wait_proc[entry.task]
        busy[name] = total + second

    new_throughput: dict[str, float] = {}
    for reference in model.reference_tasks():
        # A user's own second phase delays its next cycle.
        cycle = reference.think_time + sum(
            busy[entry.name]
            for entry in model.entries_of_task(reference.name)
        )
        if cycle <= 0:
            raise SolverError(
                f"reference task {reference.name!r} has a zero-length cycle"
            )
        new_throughput[reference.name] = reference.multiplicity / cycle

    delta = max(
        (
            abs(new_throughput[name] - state.throughput_ref[name])
            for name in new_throughput
        ),
        default=0.0,
    )
    state.throughput_ref = new_throughput

    references = model.reference_tasks()
    for name in model.entries:
        state.entry_rate[name] = sum(
            new_throughput[r.name] * state.visits[r.name].get(name, 0.0)
            for r in references
        )
    for task_name in model.tasks:
        state.task_rate[task_name] = sum(
            state.entry_rate[entry.name]
            for entry in model.entries_of_task(task_name)
        )
    return delta


def _software_specs(state: _ModelState) -> list[_SubmodelSpec]:
    """Step 3 networks: queueing at each server task's request queue."""
    model = state.model
    specs: list[_SubmodelSpec] = []
    for server_task in model.server_tasks():
        server = server_task.name
        callers: list[str] = []
        visit_counts: list[float] = []
        services: list[float] = []
        populations: list[float] = []
        thinks: list[float] = []
        clamped_population = 0.0
        total_population = 0.0

        for caller in model.callers_of_task(server):
            x_caller = state.task_rate[caller]
            rate, per_call_service = _call_rate_and_service(
                model, caller, server, state.entry_rate, state.busy
            )
            if x_caller <= _EPSILON or rate <= _EPSILON:
                continue
            v = rate / x_caller  # calls into `server` per caller invocation
            cycle = model.tasks[caller].multiplicity / x_caller
            current_wait = state.wait_task.get((caller, server), 0.0)
            residence = v * (current_wait + per_call_service)
            callers.append(caller)
            visit_counts.append(v)
            services.append(per_call_service)
            populations.append(model.tasks[caller].multiplicity)
            surrogate_think = cycle - residence
            thinks.append(max(0.0, surrogate_think))
            total_population += model.tasks[caller].multiplicity
            if surrogate_think <= 0.0:
                clamped_population += model.tasks[caller].multiplicity

        if not callers:
            continue

        # Ghost-work correction for second phases.  When the submodel is
        # *saturated* (caller surrogate think times clamp at zero), every
        # service completion is immediately followed by a re-arrival, so
        # the new request always finds the previous customer's phase-2
        # work still holding the thread — extra waiting the closed MVA
        # cannot see (the owner is no longer a queued customer).  In the
        # fully clamped limit the exact extra wait is the mean second
        # phase; below saturation the surrogate think absorbs the
        # leftover and no correction is due.  Scale by the clamped share
        # of the population.
        total_rate = sum(
            state.entry_rate[entry.name]
            for entry in model.entries_of_task(server)
        )
        mean_phase2 = (
            sum(
                state.entry_rate[entry.name]
                * (state.busy[entry.name] - state.service[entry.name])
                for entry in model.entries_of_task(server)
            ) / total_rate
            if total_rate > _EPSILON
            else 0.0
        )
        clamped_share = (
            clamped_population / total_population
            if total_population > 0
            else 0.0
        )
        specs.append(
            _SubmodelSpec(
                state=state,
                kind="task",
                server=server,
                classes=callers,
                visit_counts=visit_counts,
                services=services,
                populations=populations,
                thinks=thinks,
                multiplicity=model.tasks[server].multiplicity,
                phase2_correction=mean_phase2 * clamped_share,
            )
        )
    return specs


def _processor_specs(state: _ModelState) -> list[_SubmodelSpec]:
    """Step 4 networks: contention of hosted tasks at each processor."""
    model = state.model
    specs: list[_SubmodelSpec] = []
    for processor in model.processors.values():
        tasks: list[str] = []
        demands_per_invocation: list[float] = []
        populations: list[float] = []
        thinks: list[float] = []
        for task in model.tasks.values():
            if task.processor != processor.name:
                continue
            x_task = state.task_rate[task.name]
            if x_task <= _EPSILON:
                continue
            demand = sum(
                state.entry_rate[entry.name]
                * (entry.demand + entry.phase2_demand)
                for entry in model.entries_of_task(task.name)
            ) / x_task
            if demand <= _EPSILON:
                continue
            cycle = task.multiplicity / x_task
            residence = state.wait_proc[task.name] + demand
            tasks.append(task.name)
            demands_per_invocation.append(demand)
            populations.append(task.multiplicity)
            thinks.append(max(0.0, cycle - residence))
        if not tasks:
            continue
        specs.append(
            _SubmodelSpec(
                state=state,
                kind="proc",
                server=processor.name,
                classes=tasks,
                # Processor demand is per invocation; one visit per class
                # (the sequential solver's default-visits convention).
                visit_counts=[1.0] * len(tasks),
                services=demands_per_invocation,
                populations=populations,
                thinks=thinks,
                multiplicity=processor.multiplicity,
            )
        )
    return specs


#: The single shared station template of every submodel network: one
#: FCFS queue; per-spec multiplicities ride in the batch call.
_SUBMODEL_STATION = Station(
    name="submodel", kind=StationKind.QUEUE, multiplicity=1,
    discipline=Discipline.FCFS,
)


def _solve_specs(
    specs: list[_SubmodelSpec],
    *,
    damping: float,
    deltas: dict[int, float],
    mva_tolerance: float,
    mva_max_iterations: int,
) -> None:
    """Solve every queued submodel in one batched AMVA call and apply
    the damped waiting-time updates to each owning model."""
    batch = len(specs)
    class_max = max(len(spec.classes) for spec in specs)
    demands = np.zeros((batch, class_max, 1))
    visits = np.zeros((batch, class_max, 1))
    populations = np.zeros((batch, class_max))
    thinks = np.zeros((batch, class_max))
    multiplicities = np.ones((batch, 1), dtype=np.int64)
    for i, spec in enumerate(specs):
        n = len(spec.classes)
        v = np.asarray(spec.visit_counts)
        demands[i, :n, 0] = v * np.asarray(spec.services)
        visits[i, :n, 0] = v
        populations[i, :n] = spec.populations
        thinks[i, :n] = spec.thinks
        multiplicities[i, 0] = spec.multiplicity

    initial = default_initial_queue(demands, populations)
    for i, spec in enumerate(specs):
        seeded = spec.state.inner_queues.get((spec.kind, spec.server))
        if seeded is None:
            continue
        signature, queue = seeded
        if signature != tuple(spec.classes):
            continue
        initial[i, : len(spec.classes), 0] = queue

    result = schweitzer_mva_batch(
        [_SUBMODEL_STATION],
        demands,
        populations,
        thinks,
        visits=visits,
        multiplicities=multiplicities,
        initial_queues=initial,
        tolerance=mva_tolerance,
        max_iterations=mva_max_iterations,
        raise_on_failure=False,
    )

    for i, spec in enumerate(specs):
        state = spec.state
        n = len(spec.classes)
        if not result.converged[i]:
            # Soft failure: keep iterating with the best available
            # estimates and surface it via converged=False at the end.
            state.inner_failed = True
        state.inner_queues[(spec.kind, spec.server)] = (
            tuple(spec.classes),
            result.queue_lengths[i, :n, 0].copy(),
        )
        max_change = 0.0
        if spec.kind == "task":
            for index, caller in enumerate(spec.classes):
                v = spec.visit_counts[index]
                solved_wait = spec.phase2_correction + max(
                    0.0,
                    result.residence_times[i, index, 0] / v
                    - spec.services[index],
                )
                key = (caller, spec.server)
                old = state.wait_task.get(key, 0.0)
                new = (1.0 - damping) * old + damping * solved_wait
                state.wait_task[key] = new
                max_change = max(max_change, abs(new - old))
        else:
            for index, task_name in enumerate(spec.classes):
                solved_wait = max(
                    0.0,
                    result.residence_times[i, index, 0]
                    - spec.services[index],
                )
                old = state.wait_proc[task_name]
                new = (1.0 - damping) * old + damping * solved_wait
                state.wait_proc[task_name] = new
                max_change = max(max_change, abs(new - old))
        deltas[id(state)] = max(deltas[id(state)], max_change)


def _topological_entries(model: LQNModel) -> list[str]:
    """Entry names ordered callees-first (valid because calls are acyclic)."""
    order: list[str] = []
    seen: set[str] = set()

    def visit(name: str) -> None:
        if name in seen:
            return
        seen.add(name)
        for call in model.entries[name].calls:
            visit(call.target)
        order.append(name)

    for name in model.entries:
        visit(name)
    return order


def _call_rate_and_service(
    model: LQNModel,
    caller: str,
    server: str,
    entry_rate: Mapping[str, float],
    busy: Mapping[str, float],
) -> tuple[float, float]:
    """Total call rate caller→server and mean busy time per such call.

    The busy time (phase 1 + phase 2) is what contends for the server's
    threads; the caller itself only blocks for phase 1, which the
    submodel accounts for when extracting waiting times.
    """
    rate = 0.0
    weighted_busy = 0.0
    for entry in model.entries_of_task(caller):
        for call in entry.calls:
            target = model.entries[call.target]
            if target.task != server:
                continue
            stream = entry_rate[entry.name] * call.mean_calls
            rate += stream
            weighted_busy += stream * busy[call.target]
    if rate <= _EPSILON:
        return 0.0, 0.0
    return rate, weighted_busy / rate


def _collect_results(
    state: _ModelState,
    iterations: int,
    converged: bool,
) -> LQNResults:
    model = state.model
    entry_rate = state.entry_rate
    task_throughputs = dict(state.task_rate)
    for name, value in state.throughput_ref.items():
        task_throughputs[name] = value

    entry_waiting: dict[str, float] = {}
    for entry in model.entries.values():
        if model.tasks[entry.task].is_reference:
            entry_waiting[entry.name] = 0.0
            continue
        # Average waiting over calling streams.
        total_rate = 0.0
        weighted = 0.0
        for caller_entry in model.entries.values():
            for call in caller_entry.calls:
                if call.target != entry.name:
                    continue
                stream = entry_rate[caller_entry.name] * call.mean_calls
                total_rate += stream
                weighted += stream * state.wait_task.get(
                    (caller_entry.task, entry.task), 0.0
                )
        entry_waiting[entry.name] = weighted / total_rate if total_rate > 0 else 0.0

    task_utilizations: dict[str, float] = {}
    for task in model.tasks.values():
        occupancy = sum(
            entry_rate[e.name] * state.busy[e.name]
            for e in model.entries_of_task(task.name)
        )
        task_utilizations[task.name] = occupancy / task.multiplicity

    processor_utilizations: dict[str, float] = {}
    for processor in model.processors.values():
        load = sum(
            entry_rate[e.name] * (e.demand + e.phase2_demand)
            for e in model.entries.values()
            if model.tasks[e.task].processor == processor.name
        )
        processor_utilizations[processor.name] = load / processor.multiplicity

    return LQNResults(
        task_throughputs=task_throughputs,
        entry_throughputs=dict(entry_rate),
        entry_service_times=dict(state.service),
        entry_waiting_times=entry_waiting,
        task_utilizations=task_utilizations,
        processor_utilizations=processor_utilizations,
        iterations=iterations,
        converged=converged,
    )
