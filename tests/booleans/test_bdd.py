"""Unit tests for the BDD manager."""

import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.booleans import BDD, FALSE, TRUE, Var, all_of, any_of
from repro.booleans.bdd import ONE, ZERO
from repro.errors import SolverError


class TestConstruction:
    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            BDD(["a", "a"])

    def test_unknown_variable_rejected(self):
        manager = BDD(["a"])
        with pytest.raises(KeyError):
            manager.var("b")

    def test_constants(self):
        manager = BDD(["a"])
        assert manager.from_expr(TRUE) == ONE
        assert manager.from_expr(FALSE) == ZERO

    def test_hash_consing(self):
        manager = BDD(["a", "b"])
        first = manager.from_expr(Var("a") | Var("b"))
        second = manager.from_expr(Var("b") | Var("a"))
        assert first == second

    def test_tautology_collapses_to_one(self):
        manager = BDD(["a"])
        assert manager.from_expr(Var("a") | ~Var("a")) == ONE

    def test_contradiction_collapses_to_zero(self):
        manager = BDD(["a"])
        assert manager.from_expr(Var("a") & ~Var("a")) == ZERO


class TestOperations:
    def test_negate_involution(self):
        manager = BDD(["a", "b"])
        node = manager.from_expr(Var("a") & Var("b"))
        assert manager.negate(manager.negate(node)) == node

    def test_de_morgan(self):
        manager = BDD(["a", "b"])
        left = manager.negate(
            manager.apply_and(manager.var("a"), manager.var("b"))
        )
        right = manager.apply_or(
            manager.negate(manager.var("a")), manager.negate(manager.var("b"))
        )
        assert left == right

    def test_evaluate(self):
        manager = BDD(["a", "b", "c"])
        node = manager.from_expr((Var("a") & Var("b")) | Var("c"))
        assert manager.evaluate(node, {"a": True, "b": True, "c": False})
        assert not manager.evaluate(node, {"a": True, "b": False, "c": False})
        assert manager.evaluate(node, {"a": False, "b": False, "c": True})


class TestProbability:
    def test_single_variable(self):
        manager = BDD(["a"])
        assert manager.probability(manager.var("a"), {"a": 0.3}) == pytest.approx(0.3)

    def test_or_probability(self):
        manager = BDD(["a", "b"])
        node = manager.from_expr(Var("a") | Var("b"))
        assert manager.probability(node, {"a": 0.9, "b": 0.9}) == pytest.approx(0.99)

    def test_and_probability(self):
        manager = BDD(["a", "b"])
        node = manager.from_expr(Var("a") & Var("b"))
        assert manager.probability(node, {"a": 0.5, "b": 0.4}) == pytest.approx(0.2)

    def test_terminals(self):
        manager = BDD(["a"])
        assert manager.probability(ONE, {"a": 0.5}) == 1.0
        assert manager.probability(ZERO, {"a": 0.5}) == 0.0

    def test_satisfying_fraction(self):
        manager = BDD(["a", "b"])
        node = manager.from_expr(Var("a") & Var("b"))
        assert manager.satisfying_fraction(node) == pytest.approx(0.25)


class TestSupport:
    def test_support_of_terminal_is_empty(self):
        manager = BDD(["a", "b"])
        assert manager.support(ONE) == frozenset()

    def test_support_excludes_cancelled_variables(self):
        manager = BDD(["a", "b"])
        node = manager.from_expr((Var("a") & Var("b")) | (~Var("a") & Var("b")))
        assert manager.support(node) == frozenset({"b"})


_POOL = [f"v{i}" for i in range(8)]


@st.composite
def _expressions(draw, names, depth=3):
    """Random expressions over ``names``, constants included."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(
            st.one_of(
                st.sampled_from([TRUE, FALSE]), st.sampled_from(names).map(Var)
            )
        )
    if draw(st.booleans()):
        return ~draw(_expressions(names, depth - 1))
    terms = draw(st.lists(_expressions(names, depth - 1), min_size=1, max_size=4))
    return all_of(terms) if draw(st.booleans()) else any_of(terms)


@st.composite
def _multi_output_cases(draw):
    names = _POOL[: draw(st.integers(min_value=1, max_value=len(_POOL)))]
    outputs = draw(st.lists(_expressions(names), min_size=0, max_size=6))
    probs = {
        name: draw(
            st.one_of(
                st.sampled_from([0.0, 1.0]),
                st.floats(min_value=0.0, max_value=1.0),
            )
        )
        for name in names
    }
    return names, outputs, probs


def _brute_force_masses(names, outputs, probs):
    """Signature -> mass by enumerating every assignment."""
    terms: dict[tuple[bool, ...], list[float]] = {}
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        weight = math.prod(
            probs[name] if value else 1.0 - probs[name]
            for name, value in assignment.items()
        )
        signature = tuple(expr.evaluate(assignment) for expr in outputs)
        terms.setdefault(signature, []).append(weight)
    return {signature: math.fsum(ws) for signature, ws in terms.items()}


class TestSignatureMasses:
    @given(case=_multi_output_cases())
    @example(case=(["a"], [], {"a": 0.3}))
    @example(case=(["a", "b"], [TRUE, Var("a"), FALSE], {"a": 0.25, "b": 0.0}))
    @example(case=(["a"], [Var("a")], {"a": 1.0}))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_enumeration(self, case):
        names, exprs, probs = case
        manager = BDD(names)
        outputs = [manager.from_expr(expr) for expr in exprs]
        allocated = len(manager)
        masses = manager.signature_masses(outputs, probs)
        assert len(manager) == allocated
        expected = _brute_force_masses(names, exprs, probs)
        # Zero-mass signatures stay: the set is every satisfiable one.
        assert set(masses) == set(expected)
        for signature, mass in expected.items():
            assert masses[signature] == pytest.approx(mass, abs=1e-15)
        assert math.fsum(masses.values()) == pytest.approx(1.0, abs=1e-15)


class TestStructure:
    def test_operand_order_does_not_change_the_node(self):
        manager = BDD(["a", "b", "c", "d"])
        operands = [Var("d"), ~Var("a"), Var("b") | Var("c"), ~Var("c")]
        for build in (all_of, any_of):
            nodes = {
                manager.from_expr(build(list(permutation)))
                for permutation in itertools.permutations(operands)
            }
            assert len(nodes) == 1

    def test_selection_chain_is_linear(self):
        # x_k ∧ ¬x_0 ∧ … ∧ ¬x_{k-1} folded deepest first adds one node
        # per negated operand on top of x_k; besides it the manager only
        # holds the terminals, the k+1 variables and the k negations.
        names = [f"x{i}" for i in range(30)]
        manager = BDD(names)
        expr = all_of([Var(names[-1])] + [~Var(name) for name in names[:-1]])
        manager.from_expr(expr)
        k = len(names) - 1
        assert len(manager) == 2 + (k + 1) + k + k


class TestDeepDiagrams:
    def test_recursion_limit_is_a_solver_error(self):
        names = [f"x{i}" for i in range(1200)]
        manager = BDD(names)
        # Built bottom-up, each step is one shallow apply.
        conjunction = ONE
        for name in reversed(names):
            conjunction = manager.apply_and(manager.var(name), conjunction)
        other = manager.negate(manager.var(names[-1]))
        for name in reversed(names[:-1]):
            other = manager.apply_and(manager.var(name), other)
        with pytest.raises(SolverError, match="1200 variables"):
            manager.apply_or(conjunction, other)
