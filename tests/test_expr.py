"""Expression grammar: parsing, evaluation, printing."""

import math

import numpy as np
import pytest

from vectorhost import EvalError, InputError, ParseError, evaluate, \
    field_lattice, field_values, parse_expression, to_source
from vectorhost.coeffs import _UFUNCS, FUNCTIONS, MAX_DEPTH


def ev(src, x=0.0, t=0.0, constants=None):
    return evaluate(parse_expression(src, constants), x, t)


def test_numbers_and_arithmetic():
    assert ev("2") == 2.0
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("7/2") == 3.5
    assert ev("2^3") == 8.0
    assert ev("-2^2") == -4.0     # unary binds looser than power
    assert ev("2^-1") == 0.5      # power is right-associative over unary
    assert ev("2^3^2") == 512.0
    assert ev("1.5e2") == 150.0
    assert ev(".5") == 0.5


def test_variables_and_pi():
    assert ev("x", x=2.5) == 2.5
    assert ev("t", t=0.25) == 0.25
    assert ev("pi") == pytest.approx(math.pi)
    assert ev("x*t + 1", x=3.0, t=2.0) == 7.0


def test_functions():
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("abs(-3)") == 3.0
    assert ev("max(2, 5)") == 5.0
    assert ev("min(2, 5)") == 2.0
    assert ev("pow(2, 10)") == 1024.0


def test_operators_match_numpy_bit_for_bit():
    # each table entry evaluates exactly as the numpy call it names, and
    # every op a tree can hold appears in some case
    x = np.linspace(-1.0, 3.0, 41)
    t = 1.5 + np.cos(7.0 * x)          # positive: a divisor and an exponent
    cases = {"sin(x)": np.sin(x), "cos(x)": np.cos(x), "exp(x)": np.exp(x),
             "abs(x)": np.abs(x), "max(x, t)": np.maximum(x, t),
             "min(x, t)": np.minimum(x, t),
             "pow(x + 1.5, t)": np.power(x + 1.5, t),
             "x + t": x + t, "x - t": x - t, "x * t": x * t, "x / t": x / t,
             "(x + 1.5)^t": np.power(x + 1.5, t), "-x": -x,
             "max(0.3, abs(x - 0.5)) + exp(-x^2)/2":
                 np.maximum(0.3, np.abs(x - 0.5)) + np.exp(-np.power(x, 2.0)) / 2.0}
    assert set(FUNCTIONS) == {"sin", "cos", "exp", "abs", "max", "min", "pow"}
    ops = set()
    for src, want in cases.items():
        e = parse_expression(src)
        assert np.array_equal(evaluate(e, x, t), want), src
        assert parse_expression(to_source(e)) == e, src
        todo = [e]
        while todo:
            node = todo.pop()
            ops.add(node.op)
            todo += node.args if node.op != "num" else ()
    assert ops == set(_UFUNCS) | {"num", "x", "t"}


def test_vectorized_over_x():
    xs = np.linspace(0.0, 1.0, 11)
    vals = ev("1 + 0.5*cos(pi*x)", x=xs)
    assert vals.shape == xs.shape
    assert vals[0] == pytest.approx(1.5)
    assert vals[-1] == pytest.approx(0.5)


def test_named_constants_inlined():
    e = parse_expression("value^2 + x", {"value": 3.0})
    assert evaluate(e, 1.0, 0.0) == 10.0
    # the constant is gone after parsing
    assert "value" not in to_source(e)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError):
        parse_expression("2 +")
    with pytest.raises(ParseError):
        parse_expression("sin()")
    with pytest.raises(ParseError):
        parse_expression("max(1)")
    with pytest.raises(ParseError):
        parse_expression("2 ** 3")   # python power spelling rejected
    with pytest.raises(ParseError) as err:
        parse_expression("1 + unknown_name")
    assert err.value.offset >= 4


def test_nesting_limit():
    # input at the limit parses, evaluates and prints back; one level more,
    # or the 1500-term sum and 300 brackets that overflowed Python's stack,
    # is refused by name
    assert ev(" + ".join(["0.01"] * 100)) == pytest.approx(1.0)
    for src in (" + ".join(["1"] * MAX_DEPTH), "-" * (MAX_DEPTH - 1) + "2",
                "(" * (MAX_DEPTH - 1) + "2" + ")" * (MAX_DEPTH - 1)):
        e = parse_expression(src)
        assert parse_expression(to_source(e)) == e
        assert abs(evaluate(e, 0.0, 0.0)) >= 2.0
    for src in (" + ".join(["1"] * (MAX_DEPTH + 1)), "-" * MAX_DEPTH + "2",
                "(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH,
                " + ".join(["1"] * 1500), "(" * 300 + "1" + ")" * 300):
        with pytest.raises(ParseError, match=f"^expression nests deeper than {MAX_DEPTH} levels"):
            parse_expression(src)


def test_eval_errors():
    with pytest.raises(EvalError):
        ev("1/(x - x)")
    with pytest.raises(EvalError):
        ev("exp(10000)")         # overflow -> non-finite


def test_to_source_round_trip():
    for src in ("1 + 2*x", "-(x + t)", "sin(2*pi*t)", "2^3^2",
                "max(x, t)/(1 + x)", "-x^2", "0.1 + (0.2 + 0.3)", "x*(t*3)",
                "-(-x)^2 - -t/(1 + x)"):
        e = parse_expression(src)
        again = parse_expression(to_source(e))
        assert again == e, src
        for x in (0.0, 0.3, 2.0):
            assert evaluate(again, x, 0.7) == evaluate(e, x, 0.7)


def test_field_values_broadcasts_scalars():
    xs = np.linspace(0.0, 1.0, 5)
    out = field_values(2.5, xs, 0.0)
    assert out.shape == xs.shape
    assert np.all(out == 2.5)
    out2 = field_values(parse_expression("t"), xs, 0.5)
    assert np.all(out2 == 0.5)


def test_field_lattice_matches_per_level_values():
    xs = np.linspace(0.0, 1.0, 9)
    ts = np.arange(16) / 16.0
    exprs = [parse_expression("(1 + x*x)*(2 + sin(2*pi*t))/(1 + t)"),
             parse_expression("2 + sin(2*pi*t)"), 2.5]
    for f in exprs:
        per_level = np.stack([field_values(f, xs, float(t)) for t in ts])
        assert np.array_equal(field_lattice(f, xs, ts), per_level)
        if not isinstance(f, float):  # one broadcast call, bit for bit
            scalar_t = [np.broadcast_to(evaluate(f, xs, float(t)), xs.shape) for t in ts]
            assert np.array_equal(per_level, np.stack(scalar_t))
    arr = np.ones((16, 9))
    assert np.array_equal(field_lattice(arr, xs, ts), arr)
    with pytest.raises(InputError):
        field_lattice(np.ones((15, 9)), xs, ts)


def test_field_lattice_is_a_read_only_view():
    # a number is stored once, and a lattice-shaped array comes back uncopied
    xs, ts = np.linspace(0.0, 1.0, 9), np.arange(16) / 16.0
    const = field_lattice(2.5, xs, ts)
    assert not const.flags.writeable and not const.flags.owndata
    arr = np.ones((16, 9))
    view = field_lattice(arr, xs, ts)
    assert not view.flags.writeable and np.shares_memory(view, arr)


def test_field_lattice_refuses_a_callable():
    # a field is an Expression, a number or a lattice-shaped array
    xs, ts = np.linspace(0.0, 1.0, 9), np.arange(16) / 16.0
    with pytest.raises(InputError, match="not a usable field"):
        field_lattice(lambda x, t: x, xs, ts)
