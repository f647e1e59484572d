"""Coefficient fields: a small expression language plus hypothesis checks.

The model's coefficients (transmission, recruitment, mortality, diffusion,
boundary weights) are smooth functions of space x and time t, supplied as
text in a tiny arithmetic grammar:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | 'pi' | 'x' | 't' | name '(' expr {',' expr} ')'
            | '(' expr ')'

Functions: sin, cos, exp, abs (one argument), max, min, pow (two).
Precedence: ^  >  unary -  >  * /  >  + -.  Python's '**' is rejected.
An expression may nest at most MAX_DEPTH levels: a longer chain of
operators or deeper brackets is a ParseError.

A tree has one node type, Expression(op, args).  FUNCTIONS and _BINARY give
each operator its numpy ufunc, and each binary operator its precedence; the
parser and printer read them, and the evaluator reads _UFUNCS, which joins
them with unary minus.
Evaluation is pure and numpy-vectorised over x and t.  Every solver reads
its coefficients through field_lattice, which evaluates a field once on the
whole node x time-level lattice of a setup.  Hypothesis checks sample every
field and Robin expression weight on the grid/time lattice over two periods
and report (never throw) violations of periodicity, nonnegativity, strict
positivity, and nontriviality of the infection pathway.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dataclass_field
from typing import Mapping

import numpy as np

from .errors import EvalError, InputError, ParseError

__all__ = [
    "Expression", "parse_expression", "evaluate", "to_source", "field_values", "field_lattice",
    "CoefficientSet", "Violation", "ValidationReport", "validate_hypothesis_H",
]

# function name -> numpy ufunc; its arity is the ufunc's nin
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
             "max": np.maximum, "min": np.minimum, "pow": np.power}

# precedence levels, loosest first; they drive parsing and minimal-paren printing
_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5

# binary operator -> (precedence level, numpy ufunc)
_BINARY = {"+": (_LEVEL_SUM, np.add), "-": (_LEVEL_SUM, np.subtract),
           "*": (_LEVEL_TERM, np.multiply), "/": (_LEVEL_TERM, np.divide),
           "^": (_LEVEL_POWER, np.power)}

VARIABLES = ("x", "t")

# The deepest an expression may nest.  The parser spends at most five Python
# frames per nested group, _ev and to_source two per tree level, so all
# three stay well inside Python's default recursion limit of 1000.
MAX_DEPTH = 150
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"

# Relative tolerance for the T-periodicity lattice check.
PERIODICITY_RTOL = 1e-10
# Roundoff slack allowed when checking nonnegativity of closed forms.
NONNEG_SLACK = -1e-12


# ═══════════════════════════════════════════════════════════════════════════
# AST
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class Expression:
    """One node of a parsed expression: op is "num" (args (value,)), "x", "t",
    "neg", a _BINARY operator or a FUNCTIONS name, and args its operands."""

    op: str
    args: tuple = ()


# every op with operands -> its numpy ufunc; the evaluator reads only this
_UFUNCS = {"neg": np.negative, **{op: f for op, (_, f) in _BINARY.items()}, **FUNCTIONS}


# ═══════════════════════════════════════════════════════════════════════════
# Tokenizer / parser
# ═══════════════════════════════════════════════════════════════════════════

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.lastgroup is None:
            # Skip over whitespace-only tails.
            if src[pos:].strip() == "":
                break
            bad = pos + len(src[pos:]) - len(src[pos:].lstrip())
            raise ParseError(f"unexpected character {src[bad]!r}", bad)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, constants: Mapping[str, float]):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0      # open unary() calls: every recursion passes there
        self.constants = constants

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        self.advance()

    # grammar rules, lowest precedence first

    def parse(self) -> Expression:
        e = self.binary()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"expected operator or end of input, found {text!r}", pos)
        return e

    def binary(self, level: int = _LEVEL_SUM) -> Expression:
        """Operands one level tighter joined, left to right, by the
        operators of this level: + - at _LEVEL_SUM, * / at _LEVEL_TERM."""
        e, op = None, None
        while True:
            right = self.binary(level + 1) if level < _LEVEL_TERM else self.unary()
            e = right if op is None else Expression(op, (e, right))
            kind, op, _ = self.peek()
            if kind != "op" or op not in _BINARY or _BINARY[op][0] != level:
                return e
            self.advance()

    def unary(self) -> Expression:
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        if kind == "op" and text == "-":
            self.advance()
            e = Expression("neg", (self.unary(),))
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expression:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may be unary-negated
            return Expression("^", (base, self.unary()))
        return base

    def atom(self) -> Expression:
        kind, text, pos = self.advance()
        if kind == "number":
            return Expression("num", (float(text),))
        if kind == "ident":
            if text in VARIABLES:
                return Expression(text)
            if text == "pi":
                return Expression("num", (math.pi,))
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.binary()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.binary())
                self.expect_op(")")
                arity = FUNCTIONS[text].nin
                if len(args) != arity:
                    raise ParseError(
                        f"{text} takes {arity} argument(s), got {len(args)}", pos)
                return Expression(text, tuple(args))
            if text in self.constants:
                return Expression("num", (float(self.constants[text]),))
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.binary()
            self.expect_op(")")
            return e
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)


def parse_expression(source: str, constants: Mapping[str, float] | None = None) -> Expression:
    """Parse `source` into an Expression AST.

    Args:
        source: expression text in the grammar above.
        constants: optional extra named constants (used by parameter sweeps);
            they are inlined as literals at parse time.

    Raises:
        ParseError: with the byte offset of the offending token, or offset
            0 for a tree deeper than MAX_DEPTH.
    """
    e = _Parser(source, constants or {}).parse()
    if _height(e) > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, 0)
    return e


def _height(e: Expression) -> int:
    """Levels of the tree under e, counted without recursion."""
    height, todo = 0, [(e, 1)]
    while todo:
        e, level = todo.pop()
        height = max(height, level)
        if e.op != "num":
            todo += [(k, level + 1) for k in e.args]
    return height


# ═══════════════════════════════════════════════════════════════════════════
# Evaluation / printing
# ═══════════════════════════════════════════════════════════════════════════


def _ev(e: Expression, x, t: float):
    if e.op == "num":
        return e.args[0]
    if e.op in VARIABLES:
        return x if e.op == "x" else t
    vals = [_ev(a, x, t) for a in e.args]
    if e.op == "/" and np.any(np.asarray(vals[1]) == 0):
        raise EvalError(f"division by zero in {to_source(e)!r}")
    return _UFUNCS[e.op](*vals)


def evaluate(e: Expression, x, t: float):
    """Evaluate `e` at position(s) x and time t.

    x may be a float or ndarray; the result broadcasts accordingly.  Pure:
    identical inputs give bit-identical outputs.

    Raises:
        EvalError: on division by zero or any non-finite result.
    """
    with np.errstate(all="ignore"):
        v = _ev(e, x, t)
    if not np.all(np.isfinite(v)):
        raise EvalError(f"non-finite value from {to_source(e)!r}")
    return v


def field_values(e, x: np.ndarray, t: float) -> np.ndarray:
    """Evaluate an Expression (or plain number) at time t to an array shaped like x."""
    return field_lattice(e, np.ravel(x), [t])[0].reshape(np.shape(x))


def field_lattice(f, x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Values of a field at nodes x and times ts, shaped (len(ts), len(x)).

    f may be an Expression (evaluated in one broadcast call), a number, or
    an array that already has the lattice shape.  The lattice is a read-only
    view that shares memory with its source: a number or an expression in x
    or t alone is stored once, and a float array comes back uncopied.

    Raises:
        InputError: for an array of the wrong shape or an unusable field.
    """
    x = np.asarray(x, dtype=float)
    ts = np.asarray(ts, dtype=float)
    shape = (ts.shape[0], x.shape[0])
    if isinstance(f, Expression):
        v = evaluate(f, x[None, :], ts[:, None])
    elif isinstance(f, np.ndarray):
        if f.shape != shape:
            raise InputError(f"field array has shape {f.shape}, lattice needs {shape}")
        v = f
    elif np.isscalar(f):
        v = float(f)
    else:
        raise InputError(f"not a usable field: {f!r}")
    return np.broadcast_to(np.asarray(v, dtype=float), shape)


def _level(e: Expression) -> int:
    if e.op in _BINARY:
        return _BINARY[e.op][0]
    return _LEVEL_UNARY if e.op == "neg" else _LEVEL_ATOM


def _wrap(e: Expression, minimum: int) -> str:
    s = to_source(e)
    return f"({s})" if _level(e) < minimum else s


def to_source(e: Expression) -> str:
    """Render the AST back to grammar text; reparsing gives an equal AST."""
    op, args = e.op, e.args
    if op == "num":
        return repr(args[0])
    if op in VARIABLES:
        return op
    if op == "neg":
        return "-" + _wrap(args[0], _LEVEL_UNARY)
    if op in FUNCTIONS:
        return op + "(" + ", ".join(to_source(a) for a in args) + ")"
    if op == "^":
        # right-associative, binds tighter than unary minus
        return f"{_wrap(args[0], _LEVEL_ATOM)}^{_wrap(args[1], _LEVEL_UNARY)}"
    # left-associative: a same-level right operand keeps its brackets, a+(b+c)
    level = _BINARY[op][0]
    return f"{_wrap(args[0], level)} {op} {_wrap(args[1], level + 1)}"


# ═══════════════════════════════════════════════════════════════════════════
# Coefficient sets and hypothesis checks
# ═══════════════════════════════════════════════════════════════════════════

# field name -> needs strict positivity (else nonnegativity suffices)
_FIELD_STRICT = {
    "rho": True, "sigma1": False, "sigma2": True, "beta": False,
    "mu1": True, "mu2": False, "d1": True, "d2": True, "H_u": False,
}

COEFFICIENT_FIELDS = tuple(_FIELD_STRICT)


@dataclass(frozen=True)
class CoefficientSet:
    """All coefficient fields of the model.

    The period is the grid's (Grid.T), and the Robin endpoint weights
    belong to the boundary operators (grid.BoundarySpec), which both the
    solvers and validate_hypothesis_H read.
    """

    rho: Expression
    sigma1: Expression
    sigma2: Expression
    beta: Expression
    mu1: Expression
    mu2: Expression
    d1: Expression
    d2: Expression
    H_u: Expression

    @classmethod
    def from_strings(cls, **fields: str) -> "CoefficientSet":
        """Build from expression strings, e.g. rho="1", beta="2+sin(2*pi*t)"."""
        parsed = {}
        for name in _FIELD_STRICT:
            if name not in fields:
                raise KeyError(f"missing coefficient {name!r}")
            parsed[name] = parse_expression(fields[name])
        extra = set(fields) - set(_FIELD_STRICT)
        if extra:
            raise KeyError(f"unknown coefficient(s): {sorted(extra)}")
        return cls(**parsed)

    def named_fields(self) -> dict:
        """Coefficient fields keyed by name."""
        return {name: getattr(self, name) for name in _FIELD_STRICT}


@dataclass(frozen=True)
class Violation:
    field: str
    condition: str
    x: float
    t: float
    value: float

    def describe(self) -> str:
        return (f"{self.field}: {self.condition} at (x={self.x:.6g}, t={self.t:.6g}), "
                f"value {self.value:.6g}")


@dataclass
class ValidationReport:
    passed: bool
    violations: list = dataclass_field(default_factory=list)


def validate_hypothesis_H(c: CoefficientSet, bcs, grid) -> ValidationReport:
    """Check the standing hypothesis on a space-time lattice.

    Samples every field of c, then every Expression weight of a Robin
    operator in bcs (named robin_b<group>_left/right, in the order of bcs),
    on the grid's full node set crossed with the solver time levels of two
    periods, [0, 2T].  Numeric weights are checked when their BoundarySpec
    is built.  Checks, per field in that order: T-periodicity (relative
    1e-10), nonnegativity, and strict positivity of rho/sigma2/mu1/d1/d2;
    then nontriviality of sigma1*H_u.

    Returns a report listing violations; never raises on a failed check.
    """
    xs = grid.full_nodes()
    m = grid.steps_per_period
    ts = np.arange(2 * m + 1) * grid.dt
    violations: list[Violation] = []

    def worst(mask: np.ndarray, vals: np.ndarray):
        return np.unravel_index(np.argmin(np.where(mask, vals, np.inf)), vals.shape)

    fields = c.named_fields()
    for bc in bcs:
        for side in ("left", "right"):
            w = getattr(bc, f"b_{side}")
            if isinstance(w, Expression):
                fields[f"robin_b{bc.group}_{side}"] = w
    lattices = {name: field_lattice(f, xs, ts) for name, f in fields.items()}
    for name, vals in lattices.items():
        # periodicity: compare t and t+T over the first period of the lattice
        a = vals[: m + 1]
        b = vals[m: 2 * m + 1]
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        rel = np.abs(a - b) / scale
        if np.max(rel) > PERIODICITY_RTOL:
            j, i = np.unravel_index(np.argmax(rel), rel.shape)
            violations.append(Violation(
                name, f"not T-periodic (relative gap {np.max(rel):.3g})",
                float(xs[i]), float(ts[j]), float(a[j, i])))

        if np.min(vals) < NONNEG_SLACK:
            j, i = worst(vals < NONNEG_SLACK, vals)
            violations.append(Violation(
                name, "must be nonnegative", float(xs[i]), float(ts[j]),
                float(vals[j, i])))

        if _FIELD_STRICT.get(name, False) and np.min(vals) <= 0.0:
            j, i = worst(vals <= 0.0, vals)
            violations.append(Violation(
                name, "must be positive", float(xs[i]), float(ts[j]),
                float(vals[j, i])))

    # infection pathway must not vanish identically
    prod = lattices["sigma1"][: m + 1] * lattices["H_u"][: m + 1]
    if np.max(prod) <= 0.0:
        violations.append(Violation(
            "sigma1*H_u", "must not vanish identically", float(xs[0]),
            float(ts[0]), float(np.max(prod))))

    return ValidationReport(passed=not violations, violations=violations)
