"""Independent test oracles: exact rational feasibility via Fourier-Motzkin
elimination, exhaustive activation-pattern enumeration, and brute-force
helpers. Deliberately naive; never shares code with the implementation."""

from fractions import Fraction
from itertools import product

import numpy as np


def fm_feasible(constraints, nvars):
    """Exact feasibility of {coeffs . x <= rhs} over rationals.

    constraints: list of (coeffs: list[Fraction] of length nvars, rhs: Fraction).
    """
    cons = [([Fraction(c) for c in coeffs], Fraction(rhs))
            for coeffs, rhs in constraints]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in cons:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        combined = []
        for pc, pr in pos:
            for nc, nr in neg:
                scale_p = 1 / pc[var]
                scale_n = -1 / nc[var]
                coeffs = [p * scale_p + q * scale_n for p, q in zip(pc, nc)]
                combined.append((coeffs, pr * scale_p + nr * scale_n))
        cons = rest + combined
        # dedupe to keep the blow-up in check
        seen = {}
        for coeffs, rhs in cons:
            key = tuple(coeffs)
            if key not in seen or rhs < seen[key]:
                seen[key] = rhs
        cons = [(list(k), v) for k, v in seen.items()]
    return all(rhs >= 0 for coeffs, rhs in cons)


def _frac_mat(a):
    return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(a)]


def _frac_vec(v):
    return [Fraction(float(x)) for x in np.atleast_1d(v)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def exact_pattern_verdict(fc_layers, box_lo, box_hi, violation):
    """True iff some input in the box satisfies some violation disjunct,
    decided by enumerating every activation pattern with exact rationals.

    fc_layers: list of (W, b) numpy pairs of a folded FC/ReLU/.../FC net.
    violation: list of disjuncts, each a list of (coeffs, rhs) over outputs.
    """
    d = len(box_lo)
    hidden_widths = [w.shape[0] for w, _ in fc_layers[:-1]]
    total_hidden = sum(hidden_widths)
    box_cons = []
    for i in range(d):
        e_pos = [Fraction(0)] * d
        e_pos[i] = Fraction(1)
        box_cons.append((e_pos, Fraction(float(box_hi[i]))))
        e_neg = [Fraction(0)] * d
        e_neg[i] = Fraction(-1)
        box_cons.append((e_neg, Fraction(-float(box_lo[i]))))

    for bits in product((0, 1), repeat=total_hidden):
        a = [[Fraction(1) if i == j else Fraction(0) for j in range(d)]
             for i in range(d)]
        c = [Fraction(0)] * d
        cons = list(box_cons)
        k = 0
        for li, (w, b) in enumerate(fc_layers):
            wf, bf = _frac_mat(w), _frac_vec(b)
            new_c = [x + y for x, y in zip(_mat_vec(wf, c), bf)]
            a = _mat_mul(wf, a)
            c = new_c
            if li == len(fc_layers) - 1:
                break
            for j in range(len(a)):
                active = bits[k + j]
                if active:
                    cons.append(([-x for x in a[j]], c[j]))
                else:
                    cons.append((list(a[j]), -c[j]))
                    a[j] = [Fraction(0)] * d
                    c[j] = Fraction(0)
            k += len(a)
        for disjunct in violation:
            dcons = list(cons)
            for coeffs, rhs in disjunct:
                cf = _frac_vec(coeffs)
                row = [sum(cf[i] * a[i][j] for i in range(len(cf)))
                       for j in range(d)]
                const = sum(cf[i] * c[i] for i in range(len(cf)))
                dcons.append((row, Fraction(float(rhs)) - const))
            if fm_feasible(dcons, d):
                return True
    return False


def finite_diff_grads(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn(params) for every entry."""
    grads = {}
    for key, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[key] = g
    return grads
