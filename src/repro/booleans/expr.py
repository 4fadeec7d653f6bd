"""Immutable boolean-expression AST over named variables.

Expressions are built from :class:`Var` leaves and the connectives
:class:`And`, :class:`Or`, :class:`Not`, with module-level constants
:data:`TRUE` and :data:`FALSE`.  All nodes are hashable and compare
structurally, so they can be used as dictionary keys and deduplicated.

The constructors perform light, semantics-preserving simplification
(constant folding, flattening of nested conjunctions/disjunctions,
duplicate-term removal) so that expressions produced by graph algorithms
stay readable.  They do **not** attempt full minimisation — exact
probability evaluation is delegated to :mod:`repro.booleans.bdd`.

Nodes are **hash-consed**: constructing a node structurally equal to a
live one returns the existing instance, so identical subtrees share one
object and expression "trees" are really DAGs.  This makes equality a
pointer comparison in the common case, caches each node's hash (computed
once from the children's cached hashes), and lets consumers — the
knowledge-bit memo of the enumerative scan, the BDD builder, and above
all the bit-parallel compiler of :mod:`repro.core.kernel` — deduplicate
shared subexpressions by identity.  The intern tables hold weak
references only, so dropping every user of an expression frees it.
Pickling reconstructs nodes through the interning constructors, so
identity-based fast paths survive process boundaries.

The intern tables are guarded by one module-level lock, making node
construction safe from concurrent threads: without it, two threads
racing the same check-then-insert window could each construct a node
for the same structure, and the loser's escaped instance would break
every identity-based fast path downstream (``a == b`` but ``a is not
b``, so the kernel compiler's id-keyed CSE would duplicate work and
id-keyed memo tables would silently miss).  The long-lived analysis
service (:mod:`repro.service`) evaluates requests on a thread pool, so
this is a correctness requirement, not a nicety; the lock is
uncontended in single-threaded use and is never held while user code
runs (only around the table lookup/insert itself).

Example
-------
>>> from repro.booleans import Var, all_of, any_of
>>> up = {name: Var(name) for name in ("m1", "ag1", "ag3")}
>>> know = any_of([all_of([up["ag3"], up["m1"]]), all_of([up["ag1"], up["m1"]])])
>>> know.evaluate({"m1": True, "ag1": False, "ag3": True})
True
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping
from typing import Union
from weakref import WeakValueDictionary

#: One lock for every intern table.  Construction holds it only around
#: the lookup/insert pair (no user code, no recursion), so a single
#: shared lock cannot deadlock and keeps And/Or/Not/Var mutually
#: consistent when threads race structurally equal nodes.
_INTERN_LOCK = threading.Lock()


class Expr:
    """Base class for boolean expressions.

    Supports the operators ``&`` (and), ``|`` (or) and ``~`` (not) as a
    convenient construction syntax.
    """

    __slots__ = ("__weakref__",)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a total assignment of variable names to booleans.

        Raises
        ------
        KeyError
            If a variable appearing in the expression is missing from
            ``assignment``.
        """
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """The set of variable names appearing in this expression."""
        raise NotImplementedError

    def substitute(self, assignment: Mapping[str, bool]) -> "Expr":
        """Partially evaluate: replace the given variables by constants.

        Variables not present in ``assignment`` are left symbolic.  The
        result is simplified by constant folding.
        """
        raise NotImplementedError

    def replace(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Substitute variables by whole expressions.

        Variables absent from ``mapping`` are left unchanged.  Used to
        compose models — e.g. replacing a component variable by
        "component up AND no common-cause event", which rewires every
        knowledge expression for dependent failures.
        """
        raise NotImplementedError

    def __and__(self, other: "Expr") -> "Expr":
        return And.of([self, other])

    def __or__(self, other: "Expr") -> "Expr":
        return Or.of([self, other])

    def __invert__(self) -> "Expr":
        return Not.of(self)


class _Constant(Expr):
    """The constants TRUE and FALSE (singletons)."""

    __slots__ = ("_value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "_value", bool(value))

    @property
    def value(self) -> bool:
        return self._value

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self._value

    def variables(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, assignment: Mapping[str, bool]) -> Expr:
        return self

    def replace(self, mapping: Mapping[str, Expr]) -> Expr:
        return self

    def __repr__(self) -> str:
        return "TRUE" if self._value else "FALSE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Constant) and other._value == self._value

    def __hash__(self) -> int:
        return hash(("const", self._value))

    def __reduce__(self):
        # Pickle by reference to the module-level singleton so that the
        # identity fast paths (``expr is TRUE``) survive crossing a
        # process boundary.
        return "TRUE" if self._value else "FALSE"


TRUE = _Constant(True)
FALSE = _Constant(False)


class Var(Expr):
    """A boolean variable identified by name.

    In this library a variable named after a component means "the
    component is operational (up)".  Instances are hash-consed:
    ``Var("x") is Var("x")``.
    """

    __slots__ = ("name", "_hash")

    _interned: "WeakValueDictionary[str, Var]" = WeakValueDictionary()

    def __new__(cls, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable name must be a non-empty string, got {name!r}")
        with _INTERN_LOCK:
            self = cls._interned.get(name)
            if self is None:
                self = super().__new__(cls)
                object.__setattr__(self, "name", name)
                object.__setattr__(self, "_hash", hash(("var", name)))
                cls._interned[name] = self
        return self

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return bool(assignment[self.name])

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def substitute(self, assignment: Mapping[str, bool]) -> Expr:
        if self.name in assignment:
            return TRUE if assignment[self.name] else FALSE
        return self

    def replace(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Var) and other.name == self.name)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the interning constructor so structural
        # sharing (and identity-based fast paths) survive pickling.
        return (Var, (self.name,))


class Not(Expr):
    """Negation.  Use :meth:`Not.of` (or ``~expr``) to construct.

    Instances are hash-consed: negating the same operand twice yields
    the same object.
    """

    __slots__ = ("operand", "_hash")

    _interned: "WeakValueDictionary[Expr, Not]" = WeakValueDictionary()

    def __new__(cls, operand: Expr):
        with _INTERN_LOCK:
            self = cls._interned.get(operand)
            if self is None:
                self = super().__new__(cls)
                object.__setattr__(self, "operand", operand)
                object.__setattr__(self, "_hash", hash(("not", operand)))
                cls._interned[operand] = self
        return self

    @staticmethod
    def of(operand: Expr) -> Expr:
        """Build a simplified negation (folds constants, removes ~~)."""
        if operand is TRUE or operand == TRUE:
            return FALSE
        if operand is FALSE or operand == FALSE:
            return TRUE
        if isinstance(operand, Not):
            return operand.operand
        return Not(operand)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def substitute(self, assignment: Mapping[str, bool]) -> Expr:
        return Not.of(self.operand.substitute(assignment))

    def replace(self, mapping: Mapping[str, Expr]) -> Expr:
        return Not.of(self.operand.replace(mapping))

    def __repr__(self) -> str:
        return f"~{self.operand!r}"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Not) and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Not, (self.operand,))


class _NaryOp(Expr):
    """Shared machinery for And/Or: a tuple of deduplicated sub-terms.

    Each concrete subclass declares its own ``_interned`` table; nodes
    with equal term tuples are hash-consed to one instance per class.
    """

    __slots__ = ("terms", "_hash")
    _symbol = "?"
    _interned: "WeakValueDictionary[tuple[Expr, ...], _NaryOp]"

    def __new__(cls, terms: tuple[Expr, ...]):
        with _INTERN_LOCK:
            self = cls._interned.get(terms)
            if self is None:
                self = super().__new__(cls)
                object.__setattr__(self, "terms", terms)
                object.__setattr__(self, "_hash", hash((cls._symbol, terms)))
                cls._interned[terms] = self
        return self

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for term in self.terms:
            out = out | term.variables()
        return out

    def __repr__(self) -> str:
        inner = f" {self._symbol} ".join(repr(t) for t in self.terms)
        return f"({inner})"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self) and other.terms == self.terms  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.terms,))


def _flatten(
    terms: Iterable[Expr],
    *,
    op: type,
    identity: _Constant,
    annihilator: _Constant,
) -> Union[_Constant, list[Expr]]:
    """Flatten nested n-ary terms, fold constants, drop duplicates.

    Returns the annihilator constant if present, otherwise the reduced
    term list (which may be empty, meaning the identity).
    """
    seen: set[Expr] = set()
    out: list[Expr] = []
    stack = list(terms)
    stack.reverse()
    while stack:
        term = stack.pop()
        if not isinstance(term, Expr):
            raise TypeError(f"expected Expr, got {type(term).__name__}")
        if term == annihilator:
            return annihilator
        if term == identity:
            continue
        if isinstance(term, op):
            # Preserve order: push children so they pop in original order.
            stack.extend(reversed(term.terms))
            continue
        if term not in seen:
            seen.add(term)
            out.append(term)
    return out


class And(_NaryOp):
    """Conjunction of two or more terms.  Use :meth:`And.of` to build."""

    __slots__ = ()
    _symbol = "&"
    _interned: "WeakValueDictionary[tuple[Expr, ...], And]" = WeakValueDictionary()

    @staticmethod
    def of(terms: Iterable[Expr]) -> Expr:
        """Build a simplified conjunction.

        Flattens nested conjunctions, folds TRUE/FALSE, removes duplicate
        terms, and collapses to the single term or TRUE when possible.
        """
        reduced = _flatten(terms, op=And, identity=TRUE, annihilator=FALSE)
        if isinstance(reduced, _Constant):
            return reduced
        if not reduced:
            return TRUE
        if len(reduced) == 1:
            return reduced[0]
        return And(tuple(reduced))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(term.evaluate(assignment) for term in self.terms)

    def substitute(self, assignment: Mapping[str, bool]) -> Expr:
        return And.of(term.substitute(assignment) for term in self.terms)

    def replace(self, mapping: Mapping[str, Expr]) -> Expr:
        return And.of(term.replace(mapping) for term in self.terms)


class Or(_NaryOp):
    """Disjunction of two or more terms.  Use :meth:`Or.of` to build."""

    __slots__ = ()
    _symbol = "|"
    _interned: "WeakValueDictionary[tuple[Expr, ...], Or]" = WeakValueDictionary()

    @staticmethod
    def of(terms: Iterable[Expr]) -> Expr:
        """Build a simplified disjunction (dual of :meth:`And.of`)."""
        reduced = _flatten(terms, op=Or, identity=FALSE, annihilator=TRUE)
        if isinstance(reduced, _Constant):
            return reduced
        if not reduced:
            return FALSE
        if len(reduced) == 1:
            return reduced[0]
        return Or(tuple(reduced))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(term.evaluate(assignment) for term in self.terms)

    def substitute(self, assignment: Mapping[str, bool]) -> Expr:
        return Or.of(term.substitute(assignment) for term in self.terms)

    def replace(self, mapping: Mapping[str, Expr]) -> Expr:
        return Or.of(term.replace(mapping) for term in self.terms)


def all_of(terms: Iterable[Expr]) -> Expr:
    """Conjunction helper: ``all_of([])`` is TRUE."""
    return And.of(terms)


def any_of(terms: Iterable[Expr]) -> Expr:
    """Disjunction helper: ``any_of([])`` is FALSE."""
    return Or.of(terms)


def path_union(paths: Iterable[Iterable[str]]) -> Expr:
    """Monotone union of variable-name paths.

    Each path is a collection of variable names; the result is the
    disjunction over paths of the conjunction of their variables — the
    form of every ``know`` function in the paper (union of augmented
    minpaths).  An empty outer iterable yields FALSE (no path: the event
    can never be observed); an empty path yields TRUE.
    """
    return any_of(all_of(Var(name) for name in path) for path in paths)
