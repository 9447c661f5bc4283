"""Property model and the SMT-LIB-subset parser/emitter.

A property is an input box plus a violation condition in disjunctive normal
form over linear output atoms (every atom normalized to coeffs . Y <= rhs).
The property is violated iff some input in the box drives the network output
to satisfy every atom of some disjunct; a verifier proves the property by
showing no such input exists.
"""

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import as_int

__all__ = ["Box", "LinearAtom", "Property", "PropertyParseError",
           "parse_smtlib", "emit_smtlib", "robustness_property",
           "property_equal", "DNF_CAP"]

DNF_CAP = 64


class PropertyParseError(ValueError):
    """Syntax or scope error in an SMT-LIB property file."""


@dataclass
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("box bounds must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0


@dataclass
class LinearAtom:
    """coeffs . Y <= rhs over the output vector Y."""
    coeffs: np.ndarray
    rhs: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.rhs = float(self.rhs)
        if not (np.all(np.isfinite(self.coeffs)) and math.isfinite(self.rhs)):
            raise ValueError("atom coefficients and rhs must be finite")
        if not np.any(self.coeffs != 0.0):
            raise ValueError("atom with all-zero coefficients")

    def key(self):
        return (tuple(self.coeffs.tolist()), self.rhs)


@dataclass
class Property:
    input_box: Box
    violation: list  # list of disjuncts; each a list of Y LinearAtoms
    num_outputs: int
    source: dict = field(default_factory=lambda: {"type": "smtlib"})

    def __post_init__(self):
        if not self.violation or any(not d for d in self.violation):
            raise ValueError("violation needs at least one nonempty disjunct")
        for disjunct in self.violation:
            for atom in disjunct:
                if atom.coeffs.shape[0] != self.num_outputs:
                    raise ValueError("violation atoms must range over the "
                                     f"{self.num_outputs} outputs")


def satisfies_disjunct(y: np.ndarray, disjunct, tol: float = 0.0) -> bool:
    return all(float(a.coeffs @ y) <= a.rhs + tol for a in disjunct)


def violated_disjunct(y: np.ndarray, violation, tol: float = 0.0) -> Optional[int]:
    """Index of the first disjunct satisfied by output y, if any."""
    for j, disjunct in enumerate(violation):
        if satisfies_disjunct(y, disjunct, tol):
            return j
    return None


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_VAR_RE = re.compile(r"^(X|Y)_(\d+)$")


def _tokenize(text: str):
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split(";", 1)[0]
        for match in _TOKEN_RE.finditer(body):
            tokens.append((match.group(0), line_no, match.start() + 1))
    return tokens


def _parse_sexprs(tokens):
    exprs = []
    stack = []
    for token, line, col in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise PropertyParseError(f"line {line}, col {col}: unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else exprs).append(done)
        else:
            (stack[-1] if stack else exprs).append((token, line, col))
    if stack:
        raise PropertyParseError("unbalanced '(' at end of input")
    return exprs


def _err(pos, message):
    if pos is not None:
        return PropertyParseError(f"line {pos[0]}, col {pos[1]}: {message}")
    return PropertyParseError(message)


def _atom_pos(expr):
    if isinstance(expr, tuple):
        return expr[1], expr[2]
    for item in expr:
        pos = _atom_pos(item)
        if pos:
            return pos
    return None


def _add(term: dict, other: dict, sign: float = 1.0) -> dict:
    """term += sign * other, in place."""
    for var, c in other.items():
        term[var] = term.get(var, 0.0) + sign * c
    return term


def _parse_term(expr, declared) -> dict:
    """Linear term: var name -> coefficient, and "" -> the constant."""
    if isinstance(expr, tuple):
        token, line, col = expr
        if _VAR_RE.match(token):
            if token not in declared:
                raise _err((line, col), f"undeclared variable {token}")
            return {"": 0.0, token: 1.0}
        try:
            value = float(token)
        except ValueError:
            raise _err((line, col), f"unknown symbol {token!r}") from None
        if not math.isfinite(value):
            raise _err((line, col), f"non-finite number {token!r}")
        return {"": value}
    if not expr:
        raise PropertyParseError("empty term")
    head = expr[0]
    if not isinstance(head, tuple):
        raise _err(_atom_pos(expr), "expected an operator")
    op, pos, args = head[0], head[1:], expr[1:]
    if op == "+" or (op == "-" and len(args) == 1):
        out = {"": 0.0}
        for a in args:
            _add(out, _parse_term(a, declared), -1.0 if op == "-" else 1.0)
        return out
    if op == "-":
        if len(args) != 2:
            raise _err(pos, "'-' takes one or two arguments")
        return _add(_parse_term(args[0], declared),
                    _parse_term(args[1], declared), -1.0)
    if op == "*":
        if len(args) != 2:
            raise _err(pos, "'*' takes exactly two arguments")
        left = _parse_term(args[0], declared)
        right = _parse_term(args[1], declared)
        if len(left) > 1 and len(right) > 1:
            raise _err(pos, "nonlinear product of variables")
        if len(right) > 1:
            left, right = right, left
        return {v: c * right[""] for v, c in left.items()}
    raise _err(pos, f"unsupported term operator {op!r}")


def _capped(dnf):
    if len(dnf) > DNF_CAP:
        raise PropertyParseError(
            f"violation condition exceeds the {DNF_CAP}-disjunct cap")
    return dnf


def _parse_dnf(expr, declared):
    """A formula in DNF: a list of conjunctions, each a list of atoms
    (term, pos, kind) with term <= 0 and kind "X" (input) or "Y" (output)."""
    if isinstance(expr, tuple) or not expr:
        raise _err(_atom_pos(expr) if not isinstance(expr, tuple) else expr[1:],
                   "expected a formula")
    head = expr[0]
    if not isinstance(head, tuple):
        raise _err(_atom_pos(expr), "expected a formula operator")
    op, pos, args = head[0], head[1:], expr[1:]
    if op in ("and", "or"):
        if not args:
            raise _err(pos, f"'{op}' needs at least one argument")
        out = [] if op == "or" else [[]]
        for a in args:
            kid = _parse_dnf(a, declared)
            out = _capped(out + kid if op == "or"
                          else [c + k for c in out for k in kid])
        return out
    if op in ("<=", ">=", "<", ">"):
        if len(args) != 2:
            raise _err(pos, f"'{op}' takes exactly two arguments")
        left = _parse_term(args[0], declared)
        right = _parse_term(args[1], declared)
        # Normalize to left - right <= 0; strict relations weakened to closed.
        if op in (">=", ">"):
            left, right = right, left
        term = _add(left, right, -1.0)
        if not all(math.isfinite(c) for c in term.values()):
            raise _err(pos, "constraint overflows to a non-finite number")
        kinds = {v[0] for v, c in term.items() if v and c != 0.0}
        if len(kinds) != 1:
            raise _err(pos, "constraint mixes input and output variables"
                       if kinds else "constraint with no variables")
        return [[(term, pos, kinds.pop())]]
    raise _err(pos, f"unsupported formula operator {op!r}")


def parse_smtlib(text: str) -> Property:
    """Parse the supported SMT-LIB subset into a Property.

    Each assertion is parsed to DNF. An input assertion must be one
    conjunction of per-variable bounds; the output assertions are conjoined
    into the violation condition (capped at 64 disjuncts).
    """
    exprs = _parse_sexprs(_tokenize(text))
    declared: dict[str, int] = {}
    bounds = []  # (X index, coefficient, bound) per input atom
    violation = [[]]
    for expr in exprs:
        if isinstance(expr, tuple):
            raise _err(expr[1:], f"unexpected top-level token {expr[0]!r}")
        if not expr or not isinstance(expr[0], tuple):
            raise _err(_atom_pos(expr), "expected a command")
        cmd = expr[0][0]
        if cmd == "declare-const":
            if len(expr) != 3 or not isinstance(expr[1], tuple) \
                    or not isinstance(expr[2], tuple):
                raise _err(expr[0][1:], "declare-const takes a name and a sort")
            name, sort = expr[1][0], expr[2][0]
            if sort != "Real":
                raise _err(expr[2][1:], f"unsupported sort {sort!r}")
            match = _VAR_RE.match(name)
            if not match:
                raise _err(expr[1][1:], f"unknown symbol {name!r} "
                           "(expected X_<i> or Y_<j>)")
            declared[name] = int(match.group(2))
        elif cmd == "assert":
            if len(expr) != 2:
                raise _err(expr[0][1:], "assert takes exactly one formula")
            dnf = _parse_dnf(expr[1], declared)
            first = dnf[0][0][1]
            kinds = {kind for conj in dnf for _, _, kind in conj}
            if len(kinds) > 1:
                raise _err(first, "assertion mixes input and output variables")
            if kinds == {"Y"}:
                violation = _capped([v + c for v in violation for c in dnf])
                continue
            if len(dnf) > 1:
                raise _err(first, "disjunctive input constraints are not box "
                           "constraints")
            for term, pos, _ in dnf[0]:
                live = [(v, c) for v, c in term.items() if v and c != 0.0]
                if len(live) != 1:
                    raise _err(pos, "non-box input constraint "
                               "(must bound a single X variable)")
                (var, c), = live
                bounds.append((declared[var], c, -term[""] / c))
        elif cmd in ("set-logic", "set-info", "set-option", "check-sat", "exit"):
            continue  # accepted and ignored
        else:
            raise _err(expr[0][1:], f"unsupported command {cmd!r}")

    indices = [sorted(i for v, i in declared.items() if v[0] == kind)
               for kind in "XY"]
    if not all(indices):
        raise PropertyParseError("need at least one X_<i> and one Y_<j> constant")
    for kind, idx in zip("XY", indices):
        if idx != list(range(len(idx))):
            raise PropertyParseError(f"{kind} indices must be contiguous from 0")
    d, m = map(len, indices)

    lo = np.full(d, -np.inf)
    hi = np.full(d, np.inf)
    for i, c, bound in bounds:
        if c > 0:
            hi[i] = min(hi[i], bound)
        else:
            lo[i] = max(lo[i], bound)
    for i in range(d):
        if not np.isfinite(lo[i]) or not np.isfinite(hi[i]):
            raise PropertyParseError(f"input X_{i} is not bounded on both sides")
        if lo[i] > hi[i]:
            raise PropertyParseError(f"input X_{i} has lower bound {lo[i]} "
                                     f"above its upper bound {hi[i]}")

    if violation == [[]]:
        raise PropertyParseError("no output assertion (violation condition)")

    def output_atom(term):
        coeffs = np.zeros(m)
        for var, c in term.items():
            if var.startswith("Y"):
                coeffs[declared[var]] = c
        return LinearAtom(coeffs, -term[""])
    disjuncts = [[output_atom(term) for term, _, _ in conj]
                 for conj in violation]
    return Property(Box(lo, hi), disjuncts, num_outputs=m,
                    source={"type": "smtlib"})


# --- emitting --------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _emit_atom(atom: LinearAtom) -> str:
    terms = [f"(* {_fmt(c)} Y_{j})" for j, c in enumerate(atom.coeffs)
             if c != 0.0]
    lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
    return f"(<= {lhs} {_fmt(atom.rhs)})"


def emit_smtlib(prop: Property) -> str:
    """Render a property back to the SMT-LIB subset; parse(emit(p)) == p."""
    lines = ["; input box and violation condition"]
    for i in range(prop.input_box.dim):
        lines.append(f"(declare-const X_{i} Real)")
    for j in range(prop.num_outputs):
        lines.append(f"(declare-const Y_{j} Real)")
    for i in range(prop.input_box.dim):
        lines.append(f"(assert (>= X_{i} {_fmt(prop.input_box.lo[i])}))")
        lines.append(f"(assert (<= X_{i} {_fmt(prop.input_box.hi[i])}))")
    parts = []
    for disjunct in prop.violation:
        atoms = [_emit_atom(a) for a in disjunct]
        parts.append(atoms[0] if len(atoms) == 1
                     else "(and " + " ".join(atoms) + ")")
    body = parts[0] if len(parts) == 1 else "(or " + " ".join(parts) + ")"
    lines.append(f"(assert {body})")
    return "\n".join(lines) + "\n"


def property_equal(a: Property, b: Property) -> bool:
    """Semantic equality: same box and same disjunct set up to atom order."""
    if a.input_box.dim != b.input_box.dim or a.num_outputs != b.num_outputs:
        return False
    if not (np.array_equal(a.input_box.lo, b.input_box.lo)
            and np.array_equal(a.input_box.hi, b.input_box.hi)):
        return False
    def canon(prop):
        return sorted(tuple(sorted(atom.key() for atom in d))
                      for d in prop.violation)
    return canon(a) == canon(b)


def robustness_property(x0, label: int, epsilon: float, domain_box: Box,
                        num_classes: int) -> Property:
    """Local robustness query: is any input within epsilon (L-inf, clipped to
    the domain) classified differently from `label`?

    One disjunct per competitor class j != label, each the single atom
    Y_label - Y_j <= 0 (ties count as violations).
    """
    label = as_int(label, "label")
    x0 = np.asarray(x0, dtype=np.float64)
    if not domain_box.contains(x0):
        raise ValueError("reference input lies outside the domain box")
    if not 0 <= label < num_classes:
        raise ValueError(f"label {label} out of range [0, {num_classes})")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    lo = np.maximum(x0 - epsilon, domain_box.lo)
    hi = np.minimum(x0 + epsilon, domain_box.hi)
    disjuncts = []
    for j in range(num_classes):
        if j == label:
            continue
        coeffs = np.zeros(num_classes)
        coeffs[label] = 1.0
        coeffs[j] = -1.0
        disjuncts.append([LinearAtom(coeffs, 0.0)])
    return Property(Box(lo, hi), disjuncts, num_outputs=num_classes,
                    source={"type": "robustness", "label": label,
                            "epsilon": float(epsilon), "x0": x0.tolist()})
