"""Reduced ordered binary decision diagrams (ROBDDs).

A :class:`BDD` manager hash-conses nodes so that equivalent functions are
represented by the same node id, making equality checks O(1) and
probability evaluation linear in diagram size.  This is the workhorse for
exact probability of ``know`` expressions and for the factored
performability evaluator.

Node encoding
-------------
Terminals are the integers ``0`` and ``1``.  Internal nodes are integer
ids ≥ 2 mapping to ``(level, low, high)`` triples, where ``level`` indexes
into the manager's variable order, ``low`` is the cofactor for the
variable being False and ``high`` for True.  The reduction invariants —
``low != high`` and unique ``(level, low, high)`` triples — are maintained
by :meth:`BDD._mk`.

Thread safety
-------------
Each manager carries one re-entrant lock.  Public operations acquire it
once at the entry point and recurse through unlocked private bodies, so
the per-node cost is unchanged and a manager shared between the analysis
service's worker threads cannot corrupt its unique/apply/negate/from_expr
tables (all four are check-then-insert caches, unsafe under races).
Distinct managers never share state, so single-threaded workloads — one
manager per scan — only pay one uncontended acquire per operation.

Deep diagrams
-------------
Apply, negation and the probability walk recurse once per level, and
conversion once per expression nesting level besides, so a diagram
deeper than Python's recursion limit (about a thousand variables)
cannot be evaluated.  The public entry points turn
that ``RecursionError`` into a :class:`~repro.errors.SolverError` naming
the variable count; :meth:`BDD.signature_masses` is iterative and has no
such limit.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Mapping, Sequence

from repro.booleans.expr import FALSE, TRUE, And, Expr, Not, Or, Var
from repro.errors import SolverError

#: Terminal node ids.
ZERO = 0
ONE = 1


def _entry_point(method):
    """Run a public operation under the manager's lock, reporting a
    diagram too deep for the recursive bodies as a typed error."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            try:
                return method(self, *args, **kwargs)
            except RecursionError as exc:
                raise SolverError(
                    f"BDD over {len(self._order)} variables is too deep to "
                    "evaluate: the recursive diagram operations exceed "
                    "Python's recursion limit"
                ) from exc

    return locked


class BDD:
    """A manager for reduced ordered BDDs over a fixed variable order.

    Parameters
    ----------
    order:
        Variable names, outermost (root) first.  Every expression
        converted by this manager may only mention these variables.

    Example
    -------
    >>> manager = BDD(["a", "b"])
    >>> from repro.booleans import Var
    >>> node = manager.from_expr(Var("a") | Var("b"))
    >>> manager.probability(node, {"a": 0.9, "b": 0.9})
    0.99
    """

    def __init__(self, order: Sequence[str]):
        if len(set(order)) != len(order):
            raise ValueError("variable order contains duplicates")
        self._order: tuple[str, ...] = tuple(order)
        self._level: dict[str, int] = {name: i for i, name in enumerate(order)}
        # id -> (level, low, high); ids 0 and 1 are the terminals.
        self._nodes: list[tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[str, int, int], int] = {}
        self._not_cache: dict[int, int] = {}
        # Hash-consed Expr -> node memo for from_expr: shared DAG nodes
        # convert exactly once per manager.
        self._expr_cache: dict[Expr, int] = {}
        self.apply_cache_hits = 0
        # Guards every table above; see "Thread safety" in the module
        # docstring.  Re-entrant so composed public calls stay cheap.
        self._lock = threading.RLock()

    @property
    def order(self) -> tuple[str, ...]:
        """The variable order, root level first."""
        return self._order

    def __len__(self) -> int:
        """Total number of allocated nodes including the two terminals."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Node construction

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node
        return node

    @_entry_point
    def var(self, name: str) -> int:
        """The BDD for a single variable."""
        return self._var(name)

    def _var(self, name: str) -> int:
        try:
            level = self._level[name]
        except KeyError:
            raise KeyError(f"variable {name!r} is not in this manager's order") from None
        return self._mk(level, ZERO, ONE)

    # ------------------------------------------------------------------
    # Boolean operations

    @_entry_point
    def apply_and(self, u: int, v: int) -> int:
        """Conjunction of two nodes."""
        return self._apply("and", u, v)

    @_entry_point
    def apply_or(self, u: int, v: int) -> int:
        """Disjunction of two nodes."""
        return self._apply("or", u, v)

    @_entry_point
    def negate(self, u: int) -> int:
        """Negation of a node."""
        return self._negate(u)

    def _negate(self, u: int) -> int:
        if u == ZERO:
            return ONE
        if u == ONE:
            return ZERO
        cached = self._not_cache.get(u)
        if cached is not None:
            return cached
        level, low, high = self._nodes[u]
        result = self._mk(level, self._negate(low), self._negate(high))
        self._not_cache[u] = result
        return result

    def _apply(self, op: str, u: int, v: int) -> int:
        if op == "and":
            if u == ZERO or v == ZERO:
                return ZERO
            if u == ONE:
                return v
            if v == ONE:
                return u
        else:  # or
            if u == ONE or v == ONE:
                return ONE
            if u == ZERO:
                return v
            if v == ZERO:
                return u
        if u == v:
            return u
        if u > v:
            u, v = v, u  # both ops are commutative; canonicalise the key
        key = (op, u, v)
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.apply_cache_hits += 1
            return cached
        u_level = self._nodes[u][0]
        v_level = self._nodes[v][0]
        level = min(u_level, v_level)
        u_low, u_high = (self._nodes[u][1], self._nodes[u][2]) if u_level == level else (u, u)
        v_low, v_high = (self._nodes[v][1], self._nodes[v][2]) if v_level == level else (v, v)
        result = self._mk(
            level,
            self._apply(op, u_low, v_low),
            self._apply(op, u_high, v_high),
        )
        self._apply_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Conversion and queries

    @_entry_point
    def from_expr(self, expr: Expr) -> int:
        """Convert an expression AST into a node of this manager.

        Conversions are memoised per manager, keyed by the hash-consed
        expression node: a shared DAG subterm is converted exactly once
        however many indicator expressions reference it.  (Without the
        memo, converting the symbolic-indicator DAGs of
        :func:`repro.core.kernel.derive_indicators` — where a service's
        ``working`` condition is shared by dozens of parents — would
        redo the same apply work once per reference.)

        The operands of a conjunction or disjunction are folded deepest
        top level first, so each step only adds nodes above the diagram
        built so far.  Folding in expression order instead rebuilds a
        fresh chain per operand: ``x_k ∧ ¬x_0 ∧ … ∧ ¬x_{k-1}`` would cost
        O(k²) nodes rather than O(k).
        """
        return self._from_expr(expr)

    def _from_expr(self, expr: Expr) -> int:
        cached = self._expr_cache.get(expr)
        if cached is not None:
            return cached
        if expr == TRUE:
            node = ONE
        elif expr == FALSE:
            node = ZERO
        elif isinstance(expr, Var):
            node = self._var(expr.name)
        elif isinstance(expr, Not):
            node = self._negate(self._from_expr(expr.operand))
        elif isinstance(expr, (And, Or)):
            op, unit, absorbing = (
                ("and", ONE, ZERO) if isinstance(expr, And) else ("or", ZERO, ONE)
            )
            operands = []
            for term in expr.terms:
                operand = self._from_expr(term)
                if operand == absorbing:
                    node = absorbing
                    break
                operands.append(operand)
            else:
                nodes = self._nodes
                operands.sort(key=lambda n: nodes[n][0], reverse=True)
                node = unit
                for operand in operands:
                    node = self._apply(op, node, operand)
                    if node == absorbing:
                        break
        else:
            raise TypeError(
                f"cannot convert {type(expr).__name__} to a BDD node"
            )
        self._expr_cache[expr] = node
        return node

    @_entry_point
    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate a node under a total variable assignment."""
        while node not in (ZERO, ONE):
            level, low, high = self._nodes[node]
            node = high if assignment[self._order[level]] else low
        return node == ONE

    @_entry_point
    def probability(self, node: int, probs: Mapping[str, float]) -> float:
        """Exact probability that the function is true.

        ``probs[name]`` is the (independent) probability that variable
        ``name`` is True.  Runs in time linear in the number of distinct
        nodes reachable from ``node``.
        """
        cache: dict[int, float] = {ZERO: 0.0, ONE: 1.0}

        def walk(n: int) -> float:
            found = cache.get(n)
            if found is not None:
                return found
            level, low, high = self._nodes[n]
            p = probs[self._order[level]]
            value = (1.0 - p) * walk(low) + p * walk(high)
            cache[n] = value
            return value

        return walk(node)

    @_entry_point
    def support(self, node: int) -> frozenset[str]:
        """Variables the function actually depends on."""
        seen: set[int] = set()
        names: set[str] = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in (ZERO, ONE) or n in seen:
                continue
            seen.add(n)
            level, low, high = self._nodes[n]
            names.add(self._order[level])
            stack.append(low)
            stack.append(high)
        return frozenset(names)

    def satisfying_fraction(self, node: int) -> float:
        """Fraction of the 2^n assignments that satisfy the function."""
        return self.probability(node, {name: 0.5 for name in self._order})

    @_entry_point
    def signature_masses(
        self, outputs: Sequence[int], probs: Mapping[str, float]
    ) -> dict[tuple[bool, ...], float]:
        """Joint distribution of several functions' truth values.

        Returns ``{(b_0, ..., b_{k-1}): probability}`` over the
        signatures actually reachable — the probability that output
        ``i`` evaluates to ``b_i`` for all ``i`` simultaneously, under
        independent per-variable truth probabilities ``probs``.

        One top-down pass over tuples of output cofactors: the frontier
        starts at ``(outputs, mass 1)`` and is kept in one bucket per
        level, the top level of the tuple's non-terminal entries.  At
        level ``L`` every tuple sends ``mass·(1-p)`` to the tuple of its
        entries' low cofactors and ``mass·p`` to that of their high
        cofactors, merging equal tuples.  Tuples of terminals only are
        the signatures.  The cost is O(levels × frontier width ×
        outputs), never the 2^k signature space or the 2^n variable
        space, and no node is allocated.  Zero-weight edges are kept,
        so a probability of exactly 0 or 1 still yields every
        satisfiable signature (with mass 0.0 where it cannot occur).
        """
        nodes = self._nodes
        terminal = len(self._order)

        def top(frontier: tuple[int, ...]) -> int:
            return min(
                (nodes[n][0] for n in frontier if n > ONE), default=terminal
            )

        start = tuple(outputs)
        buckets: list[dict[tuple[int, ...], float]] = [
            {} for _ in range(terminal + 1)
        ]
        buckets[top(start)][start] = 1.0
        for level in range(top(start), terminal):
            bucket = buckets[level]
            if not bucket:
                continue
            p = probs[self._order[level]]
            for frontier, mass in bucket.items():
                low = tuple(
                    nodes[n][1] if n > ONE and nodes[n][0] == level else n
                    for n in frontier
                )
                high = tuple(
                    nodes[n][2] if n > ONE and nodes[n][0] == level else n
                    for n in frontier
                )
                for child, weight in ((low, mass * (1.0 - p)), (high, mass * p)):
                    target = buckets[top(child)]
                    target[child] = target.get(child, 0.0) + weight
            buckets[level] = {}
        return {
            tuple(n == ONE for n in frontier): mass
            for frontier, mass in buckets[terminal].items()
        }
