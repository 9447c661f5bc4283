"""Property model and the SMT-LIB-subset parser/emitter.

A property is an input box plus a violation condition in disjunctive normal
form over linear output atoms (every atom normalized to coeffs . Y <= rhs).
The property is violated iff some input in the box drives the network output
to satisfy every atom of some disjunct; a verifier proves the property by
showing no such input exists.
"""

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


class _LinTerm:
    """Sparse linear term: var name -> coefficient, plus a constant."""

    def __init__(self, const=0.0, coeffs=None):
        self.const = float(const)
        self.coeffs = dict(coeffs or {})

    def add(self, other, sign=1.0):
        self.const += sign * other.const
        for var, c in other.coeffs.items():
            self.coeffs[var] = self.coeffs.get(var, 0.0) + sign * c
        return self


def _parse_term(expr, declared) -> _LinTerm:
    if isinstance(expr, tuple):
        token, line, col = expr
        if _VAR_RE.match(token):
            if token not in declared:
                raise _err((line, col), f"undeclared variable {token}")
            return _LinTerm(coeffs={token: 1.0})
        try:
            return _LinTerm(const=float(token))
        except ValueError:
            raise _err((line, col), f"unknown symbol {token!r}") from None
    if not expr:
        raise PropertyParseError("empty term")
    head = expr[0]
    if not isinstance(head, tuple):
        raise _err(_atom_pos(expr), "expected an operator")
    op = head[0]
    args = expr[1:]
    if op == "+":
        out = _LinTerm()
        for a in args:
            out.add(_parse_term(a, declared))
        return out
    if op == "-":
        if len(args) == 1:
            return _LinTerm().add(_parse_term(args[0], declared), sign=-1.0)
        if len(args) == 2:
            out = _parse_term(args[0], declared)
            return out.add(_parse_term(args[1], declared), sign=-1.0)
        raise _err(head[1:], "'-' takes one or two arguments")
    if op == "*":
        if len(args) != 2:
            raise _err(head[1:], "'*' takes exactly two arguments")
        left = _parse_term(args[0], declared)
        right = _parse_term(args[1], declared)
        if left.coeffs and right.coeffs:
            raise _err(head[1:], "nonlinear product of variables")
        if right.coeffs:
            left, right = right, left
        return _LinTerm(const=left.const * right.const,
                        coeffs={v: c * right.const for v, c in left.coeffs.items()})
    raise _err(head[1:], f"unsupported term operator {op!r}")


_RELATIONS = {"<=", ">=", "<", ">"}


def _parse_formula(expr, declared):
    """Formula tree: ("atom", lin_term_normalized_to_<=0) | ("and"/"or", kids)."""
    if isinstance(expr, tuple) or not expr:
        raise _err(_atom_pos(expr) if not isinstance(expr, tuple) else expr[1:],
                   "expected a formula")
    head = expr[0]
    if not isinstance(head, tuple):
        raise _err(_atom_pos(expr), "expected a formula operator")
    op = head[0]
    if op in ("and", "or"):
        if len(expr) < 2:
            raise _err(head[1:], f"'{op}' needs at least one argument")
        return (op, [_parse_formula(a, declared) for a in expr[1:]])
    if op in _RELATIONS:
        if len(expr) != 3:
            raise _err(head[1:], f"'{op}' takes exactly two arguments")
        left = _parse_term(expr[1], declared)
        right = _parse_term(expr[2], declared)
        # Normalize to left - right <= 0; strict relations weakened to closed.
        if op in (">=", ">"):
            left, right = right, left
        term = left.add(right, sign=-1.0)
        return ("atom", term, head[1:])
    raise _err(head[1:], f"unsupported formula operator {op!r}")


def _term_kind(term: _LinTerm, pos):
    kinds = {v[0] for v, c in term.coeffs.items() if c != 0.0}
    if kinds == {"X"}:
        return "X"
    if kinds == {"Y"}:
        return "Y"
    if not kinds:
        raise _err(pos, "constraint with no variables")
    raise _err(pos, "constraint mixes input and output variables")


def _formula_atoms(tree):
    if tree[0] == "atom":
        yield tree
    else:
        for kid in tree[1]:
            yield from _formula_atoms(kid)


def _to_dnf(tree):
    if tree[0] == "atom":
        return [[tree]]
    if tree[0] == "or":
        out = []
        for kid in tree[1]:
            out.extend(_to_dnf(kid))
            if len(out) > DNF_CAP:
                raise PropertyParseError(
                    f"violation condition exceeds the {DNF_CAP}-disjunct cap")
        return out
    # and: cross product
    out = [[]]
    for kid in tree[1]:
        kid_dnf = _to_dnf(kid)
        out = [a + b for a in out for b in kid_dnf]
        if len(out) > DNF_CAP:
            raise PropertyParseError(
                f"violation condition exceeds the {DNF_CAP}-disjunct cap")
    return out


def _dense(term: _LinTerm, dim: int):
    coeffs = np.zeros(dim)
    for var, c in term.coeffs.items():
        coeffs[int(var.split("_")[1])] = c
    return coeffs


def parse_smtlib(text: str) -> Property:
    """Parse the supported SMT-LIB subset into a Property.

    Input assertions must be per-variable box constraints; output assertions
    may use and/or over linear atoms and are flattened to DNF (capped at 64
    disjuncts).
    """
    exprs = _parse_sexprs(_tokenize(text))
    declared: dict[str, int] = {}
    x_formulas = []
    y_formulas = []
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
            tree = _parse_formula(expr[1], declared)
            atoms = list(_formula_atoms(tree))
            kinds = {_term_kind(a[1], a[2]) for a in atoms}
            if kinds == {"X"}:
                x_formulas.append(tree)
            elif kinds == {"Y"}:
                y_formulas.append(tree)
            else:
                raise _err(atoms[0][2],
                           "assertion mixes input and output variables")
        elif cmd in ("set-logic", "set-info", "set-option", "check-sat", "exit"):
            continue  # accepted and ignored
        else:
            raise _err(expr[0][1:], f"unsupported command {cmd!r}")

    x_names = sorted((v for v in declared if v.startswith("X_")),
                     key=lambda v: declared[v])
    y_names = sorted((v for v in declared if v.startswith("Y_")),
                     key=lambda v: declared[v])
    d, m = len(x_names), len(y_names)
    if d == 0 or m == 0:
        raise PropertyParseError("need at least one X_<i> and one Y_<j> constant")
    if {declared[v] for v in x_names} != set(range(d)):
        raise PropertyParseError("X indices must be contiguous from 0")
    if {declared[v] for v in y_names} != set(range(m)):
        raise PropertyParseError("Y indices must be contiguous from 0")

    lo = np.full(d, -np.inf)
    hi = np.full(d, np.inf)
    for tree in x_formulas:
        if _contains_or(tree):
            raise _err(_atom_pos_of_tree(tree), "disjunctive input constraints "
                       "are not box constraints")
        for kind, term, pos in _formula_atoms(tree):
            live = {v: c for v, c in term.coeffs.items() if c != 0.0}
            if len(live) != 1:
                raise _err(pos, "non-box input constraint "
                           "(must bound a single X variable)")
            (var, c), = live.items()
            bound = -term.const / c
            i = int(var.split("_")[1])
            if c > 0:
                hi[i] = min(hi[i], bound)
            else:
                lo[i] = max(lo[i], bound)
    for i in range(d):
        if not np.isfinite(lo[i]) or not np.isfinite(hi[i]):
            raise PropertyParseError(f"input X_{i} is not bounded on both sides")

    if not y_formulas:
        raise PropertyParseError("no output assertion (violation condition)")
    combined = ("and", y_formulas) if len(y_formulas) > 1 else y_formulas[0]
    disjuncts = []
    for conj in _to_dnf(combined):
        disjuncts.append([
            LinearAtom(_dense(term, m), -term.const)
            for _, term, _ in conj])
    return Property(Box(lo, hi), disjuncts, num_outputs=m,
                    source={"type": "smtlib"})


def _contains_or(tree) -> bool:
    if tree[0] == "atom":
        return False
    return tree[0] == "or" or any(_contains_or(kid) for kid in tree[1])


def _atom_pos_of_tree(tree):
    for _, _term, pos in _formula_atoms(tree):
        return pos
    return None


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
