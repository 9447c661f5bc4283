import itertools
import re

import numpy as np
import pytest

from relukit.properties import (Box, LinearAtom, Property, PropertyParseError,
                                emit_smtlib, parse_smtlib, property_equal,
                                robustness_property)

BASIC = """
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (<= X_0 1.0))
(assert (>= X_0 0.0))
(assert (>= Y_0 0.5))
"""


def random_property(rng):
    d = int(rng.integers(1, 4))
    m = int(rng.integers(2, 5))
    lo = rng.uniform(-1, 0, size=d)
    hi = lo + rng.uniform(0.1, 1, size=d)
    disjuncts = []
    for _ in range(int(rng.integers(1, 4))):
        atoms = []
        for _ in range(int(rng.integers(1, 3))):
            coeffs = np.round(rng.normal(size=m), 3)
            if not np.any(coeffs):
                coeffs[0] = 1.0
            atoms.append(LinearAtom(coeffs, float(np.round(rng.normal(), 3))))
        disjuncts.append(atoms)
    return Property(Box(lo, hi), disjuncts, num_outputs=m)


class TestParse:
    def test_basic_box_and_disjunct(self):
        p = parse_smtlib(BASIC)
        assert p.input_box.lo == pytest.approx([0.0])
        assert p.input_box.hi == pytest.approx([1.0])
        assert len(p.violation) == 1 and len(p.violation[0]) == 1
        atom = p.violation[0][0]
        # (>= Y_0 0.5) normalizes to -Y_0 <= -0.5
        assert atom.coeffs == pytest.approx([-1.0]) and atom.rhs == -0.5

    def test_or_makes_two_disjuncts(self):
        text = """(declare-const X_0 Real)
(declare-const Y_0 Real)(declare-const Y_1 Real)(declare-const Y_2 Real)
(assert (and (>= X_0 0.0) (<= X_0 1.0)))
(assert (or (>= Y_0 Y_1) (>= Y_2 Y_1)))"""
        p = parse_smtlib(text)
        assert len(p.violation) == 2

    def test_non_box_input_rejected(self):
        text = """(declare-const X_0 Real)(declare-const X_1 Real)
(declare-const Y_0 Real)
(assert (<= (+ X_0 X_1) 1.0))
(assert (>= X_0 0.0))(assert (<= X_0 1.0))
(assert (>= X_1 0.0))(assert (<= X_1 1.0))
(assert (>= Y_0 0.5))"""
        with pytest.raises(PropertyParseError, match="non-box"):
            parse_smtlib(text)

    def test_unknown_symbol(self):
        with pytest.raises(PropertyParseError, match="unknown symbol"):
            parse_smtlib("(declare-const Z_0 Real)")
        with pytest.raises(PropertyParseError, match="unknown symbol"):
            parse_smtlib(BASIC + "(assert (<= frobnicate 1.0))")

    def test_dnf_cap(self):
        decls = "(declare-const X_0 Real)" + "".join(
            f"(declare-const Y_{j} Real)" for j in range(2))
        box = "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
        # (or a b)^7 conjoined -> 2^7 = 128 > 64 disjuncts
        clause = "(or (>= Y_0 0.0) (>= Y_1 0.0))"
        body = f"(assert (and {' '.join([clause] * 7)}))"
        with pytest.raises(PropertyParseError, match="cap"):
            parse_smtlib(decls + box + body)

    def test_unbounded_input_rejected(self):
        with pytest.raises(PropertyParseError, match="bounded"):
            parse_smtlib("(declare-const X_0 Real)(declare-const Y_0 Real)"
                         "(assert (>= X_0 0.0))(assert (>= Y_0 0.5))")

    def test_mixed_input_output_atom_rejected(self):
        with pytest.raises(PropertyParseError, match="mixes"):
            parse_smtlib("(declare-const X_0 Real)(declare-const Y_0 Real)"
                         "(assert (>= X_0 0.0))(assert (<= X_0 1.0))"
                         "(assert (<= (- Y_0 X_0) 0.0))")

    def test_syntax_error_has_position(self):
        with pytest.raises(PropertyParseError, match="unbalanced"):
            parse_smtlib("(assert (<= X_0 1.0)")
        with pytest.raises(PropertyParseError, match="line 1"):
            parse_smtlib("(assert (<= X_0 1.0)))")

    def test_comments_and_ignored_commands(self):
        p = parse_smtlib("; a comment\n(set-logic QF_LRA)\n" + BASIC)
        assert p.input_box.dim == 1

    def test_strict_relations_weakened(self):
        p = parse_smtlib(BASIC.replace(">= Y_0", "> Y_0"))
        assert p.violation[0][0].rhs == -0.5

    def test_one_disjunct_or_on_input_is_a_box(self):
        p = parse_smtlib("(declare-const X_0 Real)(declare-const Y_0 Real)"
                         "(assert (or (and (>= X_0 0.0) (<= X_0 1.0))))"
                         "(assert (>= Y_0 0.5))")
        assert p.input_box.lo.tolist() == [0.0]
        assert p.input_box.hi.tolist() == [1.0]

    def test_two_disjunct_or_on_input_rejected(self):
        with pytest.raises(PropertyParseError, match="line 1, col 62: "
                           "disjunctive input"):
            parse_smtlib("(declare-const X_0 Real)(declare-const Y_0 Real)"
                         "(assert (or (>= X_0 0.0) (<= X_0 1.0)))")

    def test_first_error_in_document_order(self):
        # The atom without variables comes before the unknown symbol.
        with pytest.raises(PropertyParseError,
                           match="line 7, col 15: constraint with no"):
            parse_smtlib(BASIC + "(assert (and (<= 1.0 2.0) (<= frob 1.0)))")

    @pytest.mark.parametrize("token", ["nan", "inf", "-infinity", "1e400"])
    def test_non_finite_numeral_rejected(self, token):
        with pytest.raises(PropertyParseError,
                           match=f"line 7, col 23: non-finite number '{token}'"):
            parse_smtlib(BASIC + f"(assert (<= (* 2.0 (* {token} Y_0)) 1.0))")

    def test_overflowing_constraint_rejected(self):
        with pytest.raises(PropertyParseError,
                           match="line 7, col 10: .*overflow"):
            parse_smtlib(BASIC + "(assert (<= (* 1e200 (* 1e200 Y_0)) 1.0))")

    def test_crossing_input_bounds_name_the_variable(self):
        with pytest.raises(PropertyParseError,
                           match="X_0 has lower bound 2.0 above its upper"):
            parse_smtlib("(declare-const X_0 Real)(declare-const Y_0 Real)"
                         "(assert (>= X_0 2))(assert (<= X_0 1))"
                         "(assert (>= Y_0 0.5))")

    def test_zero_input_coefficient_in_output_atom_is_dropped(self):
        # X_1 has index 1 like Y_1, and X_0 index 0 like Y_0; neither may
        # reach the output coefficients.
        p = parse_smtlib("(declare-const X_0 Real)(declare-const X_1 Real)"
                         "(declare-const Y_0 Real)(declare-const Y_1 Real)"
                         "(assert (and (>= X_0 0) (<= X_0 1)))"
                         "(assert (and (>= X_1 0) (<= X_1 1)))"
                         "(assert (<= (+ Y_0 Y_1 (* 0 X_1)) 1))"
                         "(assert (<= (+ Y_0 (* 0 X_0)) 2))")
        assert [a.coeffs.tolist() for a in p.violation[0]] == [[1.0, 1.0],
                                                               [1.0, 0.0]]


# Declarations, and both bounds of X_0, for the malformed documents below.
DECLS = "(declare-const X_0 Real)(declare-const Y_0 Real)\n"
BOUNDS = "(assert (>= X_0 0.0))(assert (<= X_0 1.0))\n"


class TestMalformedDocuments:
    """Each error path of the parser, with its message and, where it has
    one, its position."""

    @pytest.mark.parametrize("text,message", [
        ("(declare-const Y_0 Real)\n(assert (<= X_0 1.0))",
         "line 2, col 13: undeclared variable X_0"),
        (DECLS + "(assert (<= () 1.0))", "empty term"),
        (DECLS + BOUNDS + "(assert (<= (* Y_0 Y_0) 1.0))",
         "line 3, col 14: nonlinear product of variables"),
        (DECLS + BOUNDS + "(assert (<= (/ Y_0 2.0) 1.0))",
         "line 3, col 14: unsupported term operator '/'"),
        (DECLS + BOUNDS + "(assert (<= (- Y_0 1.0 2.0) 1.0))",
         "line 3, col 14: '-' takes one or two arguments"),
        (DECLS + BOUNDS + "(assert (<= (* Y_0) 1.0))",
         "line 3, col 14: '*' takes exactly two arguments"),
        (DECLS + BOUNDS + "(assert (<= ((Y_0)) 1.0))",
         "line 3, col 15: expected an operator"),
        (DECLS + BOUNDS + "(assert (not (<= Y_0 1.0)))",
         "line 3, col 10: unsupported formula operator 'not'"),
        (DECLS + BOUNDS + "(assert Y_0)", "line 3, col 9: expected a formula"),
        (DECLS + BOUNDS + "(assert ())", "expected a formula"),
        (DECLS + BOUNDS + "(assert ((<= Y_0 1.0)))",
         "line 3, col 11: expected a formula operator"),
        (DECLS + BOUNDS + "(assert (and))",
         "line 3, col 10: 'and' needs at least one argument"),
        (DECLS + BOUNDS + "(assert (<= Y_0))",
         "line 3, col 10: '<=' takes exactly two arguments"),
        (DECLS + BOUNDS + "(assert (or (<= Y_0 1.0) (<= X_0 1.0)))",
         "line 3, col 14: assertion mixes input and output variables"),
        ("(declare-const X_0 Int)", "line 1, col 20: unsupported sort 'Int'"),
        ("(declare-const X_0)",
         "line 1, col 2: declare-const takes a name and a sort"),
        (DECLS + "(push 1)", "line 2, col 2: unsupported command 'push'"),
        (DECLS + "check-sat",
         "line 2, col 1: unexpected top-level token 'check-sat'"),
        (DECLS + "(())", "expected a command"),
        (DECLS + "(assert (<= Y_0 1.0) (<= Y_0 2.0))",
         "line 2, col 2: assert takes exactly one formula"),
        ("(declare-const Y_0 Real)\n(assert (>= Y_0 0.5))",
         "need at least one X_<i> and one Y_<j> constant"),
        ("(declare-const X_0 Real)\n" + BOUNDS,
         "need at least one X_<i> and one Y_<j> constant"),
        ("(declare-const X_0 Real)(declare-const X_2 Real)"
         "(declare-const Y_0 Real)\n" + BOUNDS,
         "X indices must be contiguous from 0"),
        ("(declare-const X_0 Real)(declare-const Y_1 Real)\n" + BOUNDS,
         "Y indices must be contiguous from 0"),
        (DECLS + BOUNDS, "no output assertion (violation condition)")],
        ids=["undeclared-variable", "empty-term", "nonlinear-product",
             "term-operator", "minus-arity", "times-arity", "term-no-operator",
             "formula-operator", "formula-atom", "formula-empty",
             "formula-no-operator", "and-empty", "relation-arity",
             "assertion-mixes", "sort", "declare-arity", "command",
             "top-level-token", "no-command", "assert-arity", "no-x",
             "no-y", "x-gap", "y-gap", "no-output"])
    def test_raises_with_message_and_position(self, text, message):
        with pytest.raises(PropertyParseError,
                           match=f"^{re.escape(message)}$"):
            parse_smtlib(text)


def _assert_parses_to(text, lo, hi, violation):
    """parse_smtlib(text) gives exactly this box and violation: the same
    float64 bytes (so the sign of zero counts), the same repr of each rhs,
    and the same disjunct and atom order."""
    prop = parse_smtlib(text)
    assert prop.input_box.lo.tobytes() == np.array(lo, dtype=float).tobytes()
    assert prop.input_box.hi.tobytes() == np.array(hi, dtype=float).tobytes()
    got = [[(a.coeffs.tobytes(), repr(a.rhs)) for a in d]
           for d in prop.violation]
    want = [[(np.array(c, dtype=float).tobytes(), repr(float(r)))
             for c, r in d] for d in violation]
    assert got == want


class TestParsePinned:
    """Exact parser output on a fixed corpus."""

    SHAPES = """; declarations
(declare-const X_0 Real)(declare-const X_1 Real)
(declare-const Y_0 Real)(declare-const Y_1 Real)(declare-const Y_2 Real)
(assert (>= X_0 -0.0))
(assert (and (<= X_0 0.75) (> (* 2.0 X_1) -1.0)
             (< (- X_1) 0.5) (<= X_1 (* 0.5 -0.0))))
(assert (or (and (<= (- Y_0 Y_1) -0.0) (> (* Y_2 -3.0) 0.25)
                 (<= (- (* -0.0 Y_0) Y_1) 1.0))
            (or (< (+ Y_0 (* 0.5 Y_2)) (- 1.5))
                (and (>= Y_1 Y_2) (<= (- (- Y_0)) (* -2.0 1.5))))
            (<= (+ (* -1 Y_0) -0.0) 0.0)))
"""

    def test_shapes(self):
        # -0.0 bounds, nested and/or, unary and binary '-', '*' with the
        # scalar on either side, both strict relations.
        _assert_parses_to(self.SHAPES, [-0.0, -0.5], [0.75, -0.0], [
            [([1.0, -1.0, 0.0], -0.0), ([0.0, 0.0, 3.0], -0.25),
             ([-0.0, -1.0, 0.0], 1.0)],
            [([1.0, 0.0, 0.5], -1.5)],
            [([0.0, -1.0, 1.0], -0.0), ([1.0, 0.0, 0.0], -3.0)],
            [([-1.0, 0.0, 0.0], -0.0)]])

    DECLS = ("(declare-const X_0 Real)"
             + "".join(f"(declare-const Y_{j} Real)" for j in range(4))
             + "\n(assert (and (>= X_0 0.0) (<= X_0 1.0)))\n")

    @staticmethod
    def _clause(k):
        return (f"(assert (or (>= Y_0 {k}) (<= Y_1 (- {k}))"
                f" (> (* {k} Y_2) Y_3) (< Y_3 (* Y_0 {k}))))\n")

    def test_output_assertions_multiply_up_to_the_cap(self):
        # Three four-way assertions: 4 * 4 * 4 = 64 disjuncts, in product
        # order with the first assertion outermost.
        per_assertion = [
            [([-1.0, 0.0, 0.0, 0.0], -1.5), ([0.0, 1.0, 0.0, 0.0], -1.5),
             ([0.0, 0.0, -1.5, 1.0], -0.0), ([-1.5, 0.0, 0.0, 1.0], -0.0)],
            [([-1.0, 0.0, 0.0, 0.0], 0.0), ([0.0, 1.0, 0.0, 0.0], -0.0),
             ([0.0, 0.0, 0.0, 1.0], -0.0), ([0.0, 0.0, 0.0, 1.0], -0.0)],
            [([-1.0, 0.0, 0.0, 0.0], -2.0), ([0.0, 1.0, 0.0, 0.0], -2.0),
             ([0.0, 0.0, -2.0, 1.0], -0.0), ([-2.0, 0.0, 0.0, 1.0], -0.0)]]
        text = self.DECLS + "".join(self._clause(k)
                                    for k in ("1.5", "-0.0", "2"))
        _assert_parses_to(text, [0.0], [1.0],
                          [list(d) for d in itertools.product(*per_assertion)])

    def test_seven_separate_output_assertions_exceed_the_cap(self):
        text = self.DECLS + "(assert (or (>= Y_0 0.0) (>= Y_1 0.0)))\n" * 7
        with pytest.raises(PropertyParseError, match="64-disjunct cap"):
            parse_smtlib(text)


class TestEmit:
    def test_round_trip_basic(self):
        p = parse_smtlib(BASIC)
        assert property_equal(p, parse_smtlib(emit_smtlib(p)))

    def test_declares_all_consts(self):
        p = random_property(np.random.default_rng(0))
        text = emit_smtlib(p)
        for i in range(p.input_box.dim):
            assert f"(declare-const X_{i} Real)" in text
        for j in range(p.num_outputs):
            assert f"(declare-const Y_{j} Real)" in text

    def test_100_random_round_trips(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_property(rng)
            assert property_equal(p, parse_smtlib(emit_smtlib(p)))


class TestRobustnessProperty:
    DOMAIN = Box(np.zeros(3), np.ones(3))

    def test_zero_epsilon_point_box(self):
        x0 = np.array([0.2, 0.5, 0.9])
        p = robustness_property(x0, 1, 0.0, self.DOMAIN, 4)
        assert np.array_equal(p.input_box.lo, x0)
        assert np.array_equal(p.input_box.hi, x0)

    def test_binary_single_disjunct(self):
        p = robustness_property(np.array([0.5, 0.5, 0.5]), 0, 0.1,
                                self.DOMAIN, 2)
        assert len(p.violation) == 1
        atom = p.violation[0][0]
        # Y_1 >= Y_0 encoded as Y_0 - Y_1 <= 0
        assert atom.coeffs == pytest.approx([1.0, -1.0]) and atom.rhs == 0.0

    def test_clipped_to_domain(self):
        p = robustness_property(np.array([0.05, 0.5, 0.98]), 0, 0.1,
                                self.DOMAIN, 2)
        assert p.input_box.lo == pytest.approx([0.0, 0.4, 0.88])
        assert p.input_box.hi == pytest.approx([0.15, 0.6, 1.0])

    def test_x0_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            robustness_property(np.array([1.5, 0.5, 0.5]), 0, 0.1,
                                self.DOMAIN, 2)

    def test_carries_label_metadata(self):
        p = robustness_property(np.array([0.5, 0.5, 0.5]), 2, 0.05,
                                self.DOMAIN, 3)
        assert p.source["type"] == "robustness"
        assert p.source["label"] == 2

    @pytest.mark.parametrize("label", [1.5, "1", True, None])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match="label must be an integer"):
            robustness_property(np.array([0.5, 0.5, 0.5]), label, 0.1,
                                self.DOMAIN, 3)

    def test_numpy_integer_label_accepted(self):
        p = robustness_property(np.array([0.5, 0.5, 0.5]), np.int64(1), 0.1,
                                self.DOMAIN, 3)
        assert p.source["label"] == 1 and type(p.source["label"]) is int


class TestModelInvariants:
    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_property_needs_disjuncts(self):
        with pytest.raises(ValueError):
            Property(Box([0.0], [1.0]), [], num_outputs=1)

    def test_atom_rejects_zero_coeffs(self):
        with pytest.raises(ValueError):
            LinearAtom([0.0, 0.0], 1.0)

    @pytest.mark.parametrize("coeffs,rhs", [([np.inf, 1.0], 0.0),
                                            ([1.0, np.nan], 0.0),
                                            ([1.0, 0.0], np.nan)])
    def test_atom_rejects_non_finite(self, coeffs, rhs):
        with pytest.raises(ValueError, match="finite"):
            LinearAtom(coeffs, rhs)
