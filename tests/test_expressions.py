import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxapprox as ca
from ctxapprox.expressions import _MAX_DEPTH

# the reference the grammar is held to: constants become np.full arrays
# before any operator or function meets them, and ufuncs apply in tree order
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "sin": np.sin, "cos": np.cos, "exp": np.exp, "relu": lambda z: np.maximum(z, 0.0)}


def reference(tree, pts):
    kind, *args = tree
    if kind == "const":
        return np.full(pts.shape[0], float(args[0]))
    if kind == "pi":
        return np.full(pts.shape[0], math.pi)
    if kind == "var":
        return pts[:, args[0]]
    if kind == "neg":
        return np.negative(reference(args[0], pts))
    return _UFUNCS[kind](*(reference(a, pts) for a in args))


def render(tree, rnd):
    """Source text of ``tree``: compound operands in parentheses, plus random
    redundant parentheses and whitespace (newlines and tabs included)."""
    def sp():
        return rnd.choice(["", "", " ", "  ", "\n", "\t"])

    kind, *args = tree
    if kind == "const":
        text = repr(args[0])
    elif kind == "pi":
        text = "pi"
    elif kind == "var":
        text = rnd.choice(["x", "x1", "x01"] if args[0] == 0 else [f"x{args[0] + 1}"])
    elif kind == "neg":
        text = f"-{sp()}({sp()}{render(args[0], rnd)}{sp()})"
    elif kind in ("sin", "cos", "exp", "relu"):
        text = f"{kind}{sp()}({sp()}{render(args[0], rnd)}{sp()})"
    else:
        a, b = (f"({sp()}{render(c, rnd)}{sp()})" for c in args)
        text = f"{a}{sp()}{kind}{sp()}{b}"
    for _ in range(rnd.randrange(3)):
        text = f"({sp()}{text}{sp()})"
    return text


_TREES = st.recursive(
    st.one_of(st.floats(0.0, 1e6).map(lambda c: ("const", c)),
              st.integers(0, 10**20).map(lambda c: ("const", c)),
              st.just(("pi",)), st.integers(0, 2).map(lambda i: ("var", i))),
    lambda sub: st.one_of(
        sub.map(lambda a: ("neg", a)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "relu"]), sub),
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub)),
    max_leaves=12)


class TestParseTarget:
    def test_acceptance_target(self):
        f = ca.parse_target("sin(2*pi*x) + 0.5*cos(pi*x)")
        pts = np.linspace(0, 1, 50)[:, None]
        expected = np.sin(2 * np.pi * pts[:, 0]) + 0.5 * np.cos(np.pi * pts[:, 0])
        np.testing.assert_allclose(f(pts), expected, atol=1e-15)

    def test_components_and_operators(self):
        f = ca.parse_target("x1*x2 - x2/2 + relu(x1 - 0.5)")
        pts = np.array([[0.2, 1.0], [0.8, -2.0]])
        expected = (pts[:, 0] * pts[:, 1] - pts[:, 1] / 2
                    + np.maximum(pts[:, 0] - 0.5, 0.0))
        np.testing.assert_allclose(f(pts), expected)

    def test_unary_minus_and_nesting(self):
        f = ca.parse_target("-exp(-(x + 1))")
        pts = np.array([[0.5]])
        assert f(pts)[0] == pytest.approx(-math.exp(-1.5))

    def test_x_is_alias_for_x1(self):
        f = ca.parse_target("x")
        pts = np.array([[3.0, 4.0]])
        assert f(pts)[0] == 3.0

    def test_variable_index_takes_up_to_18_digits(self):
        f = ca.parse_target("x" + "0" * 17 + "2")
        assert f(np.array([[3.0, 4.0]]))[0] == 4.0

    def test_errors_name_field(self):
        # the deep and long inputs used to escape as a RecursionError, and a
        # 5000-digit variable index as int()'s bare ValueError
        for bad in ("sin(", "x0", "2 ** 3", "foo(3)", "1 + ", "x9",
                    "(" * 300 + "x" + ")" * 300, "+".join(["x"] * 2000), "-" * 2000 + "x",
                    "-" * _MAX_DEPTH + "x", "1" * 400 + "*x",
                    "+x", "2**x", "1j*x", "True*x",
                    "sin(x, x)", "sin(x=1)", "np.sin(x)", "x[0]",
                    "(lambda: 1)()", '__import__("os")', "x" + "1" * 19,
                    "x" + "1" * 5000):
            with pytest.raises(ca.ConfigError) as exc:
                f = ca.parse_target(bad)
                f(np.zeros((1, 2)))
            assert exc.value.field == "target.expr"

    def test_scientific_literals(self):
        f = ca.parse_target("1.5e-3 + 2.0e2 * x")
        assert f(np.array([[1.0]]))[0] == pytest.approx(200.0015)

    @pytest.mark.parametrize("text,value", [
        (" x ", 2.0), ("x\n+ 1", 3.0), ("x01", 2.0), ("1_000*x", 2000.0),
        ("-" * (_MAX_DEPTH - 1) + "x", -2.0)])
    def test_whitespace_and_python_spellings(self, text, value):
        assert ca.parse_target(text)(np.array([[2.0]]))[0] == value

    @settings(max_examples=200, deadline=None)
    @given(tree=_TREES, rnd=st.randoms(use_true_random=False),
           seed=st.integers(0, 2**32 - 1))
    def test_random_trees_keep_the_reference_bits(self, tree, rnd, seed):
        pts = np.random.default_rng(seed).uniform(-3.0, 3.0, (7, 3))
        text = render(tree, rnd)
        with np.errstate(all="ignore"):
            got = ca.parse_target(text)(pts)
            want = reference(tree, pts)
        assert got.tobytes() == want.tobytes(), text
