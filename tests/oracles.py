"""Independent test oracles: exact rational feasibility via Fourier-Motzkin
elimination, an exact activation-pattern search with the exhaustive
enumeration as its reference, and brute-force helpers. Deliberately naive;
never shares code with the implementation."""

from fractions import Fraction
from itertools import product

import numpy as np


def fm_feasible(constraints, nvars):
    """Exact feasibility of {coeffs . x <= rhs} over rationals, by
    Fourier-Motzkin elimination.

    constraints: list of (coeffs: list[Fraction] of length nvars, rhs: Fraction).

    Each row is divided by the magnitude of its first nonzero coefficient,
    so rows that are positive multiples of one another become equal, and of
    equal rows only the smallest rhs is kept. An all-zero row decides at
    once: 0 <= rhs holds or the system is infeasible. Each step eliminates
    the variable with the fewest (positive, negative) row pairs.
    reference_fm_feasible is the plain elimination it is tested against.
    """
    rows = {}

    def add(coeffs, rhs):
        """Whether the row leaves the system possibly feasible."""
        lead = next((abs(c) for c in coeffs if c), None)
        if lead is None:
            return rhs >= 0
        key = tuple(c / lead for c in coeffs)
        rhs /= lead
        if key not in rows or rhs < rows[key]:
            rows[key] = rhs
        return True

    if not all(add([Fraction(c) for c in coeffs], Fraction(rhs))
               for coeffs, rhs in constraints):
        return False
    left = list(range(nvars))
    while rows and left:
        signs = [([k for k in rows if k[v] > 0], [k for k in rows if k[v] < 0])
                 for v in left]
        i = min(range(len(left)),
                key=lambda i: len(signs[i][0]) * len(signs[i][1]))
        var, (pos, neg) = left.pop(i), signs[i]
        combine = [(p, n, rows[p], rows[n]) for p in pos for n in neg]
        for k in pos + neg:
            del rows[k]
        for p, n, pr, nr in combine:
            # each side scaled to a unit coefficient of var, which cancels
            sp, sn = 1 / p[var], -1 / n[var]
            if not add([a * sp + b * sn for a, b in zip(p, n)],
                       pr * sp + nr * sn):
                return False
    return True


def reference_fm_feasible(constraints, nvars):
    """fm_feasible by eliminating the variables in index order, without
    scaling rows or stopping early: the reference it is tested against."""
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


def _box_constraints(box_lo, box_hi):
    d = len(box_lo)
    box_cons = []
    for i in range(d):
        e_pos = [Fraction(0)] * d
        e_pos[i] = Fraction(1)
        box_cons.append((e_pos, Fraction(float(box_hi[i]))))
        e_neg = [Fraction(0)] * d
        e_neg[i] = Fraction(-1)
        box_cons.append((e_neg, Fraction(-float(box_lo[i]))))
    return box_cons


def _disjunct_feasible(cons, a, c, disjunct, d):
    """Whether {cons} with every atom coeffs @ (a x + c) <= rhs of the
    disjunct is feasible."""
    dcons = list(cons)
    for coeffs, rhs in disjunct:
        cf = _frac_vec(coeffs)
        row = [sum(cf[i] * a[i][j] for i in range(len(cf)))
               for j in range(d)]
        const = sum(cf[i] * c[i] for i in range(len(cf)))
        dcons.append((row, Fraction(float(rhs)) - const))
    return fm_feasible(dcons, d)


def exact_pattern_verdict(fc_layers, box_lo, box_hi, violation):
    """True iff some input in the box satisfies some violation disjunct,
    decided with exact rationals by a depth-first search over activation
    patterns, neuron by neuron in layer order.

    A prefix of the pattern shares its layers' products with every
    completion, and a prefix whose region (the box and the sign rows so far)
    is empty is cut: each completion's region lies inside it, so the
    verdict is enumerated_pattern_verdict's.

    fc_layers: list of (W, b) numpy pairs of a folded FC/ReLU/.../FC net.
    violation: list of disjuncts, each a list of (coeffs, rhs) over outputs.
    """
    d = len(box_lo)
    layers = [(_frac_mat(w), _frac_vec(b)) for w, b in fc_layers]

    def layer(li, a, c, cons):
        wf, bf = layers[li]
        a = _mat_mul(wf, a)
        c = [x + y for x, y in zip(_mat_vec(wf, c), bf)]
        if li == len(layers) - 1:
            return any(_disjunct_feasible(cons, a, c, disjunct, d)
                       for disjunct in violation)
        return neuron(li, a, c, [], [], cons)

    def neuron(li, a, c, out_a, out_c, cons):
        j = len(out_a)
        if j == len(a):
            return layer(li + 1, out_a, out_c, cons)
        for active in (0, 1):
            if active:
                grown = cons + [([-x for x in a[j]], c[j])]
                row, const = a[j], c[j]
            else:
                grown = cons + [(list(a[j]), -c[j])]
                row, const = [Fraction(0)] * d, Fraction(0)
            if fm_feasible(grown, d) and neuron(
                    li, a, c, out_a + [row], out_c + [const], grown):
                return True
        return False

    identity = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    return layer(0, identity, [Fraction(0)] * d,
                 _box_constraints(box_lo, box_hi))


def enumerated_pattern_verdict(fc_layers, box_lo, box_hi, violation):
    """exact_pattern_verdict by enumerating every activation pattern and
    recomputing each one's products: the reference it is tested against.
    """
    d = len(box_lo)
    hidden_widths = [w.shape[0] for w, _ in fc_layers[:-1]]
    total_hidden = sum(hidden_widths)
    box_cons = _box_constraints(box_lo, box_hi)

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
        if any(_disjunct_feasible(cons, a, c, disjunct, d)
               for disjunct in violation):
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


def reference_train(net, dataset, config):
    """The training loop as first written, kept as the reference that
    relukit.training.train must match bit for bit: per-key allocating Adam
    in Kingma & Ba's efficient form (the bias corrections folded into
    alpha_t and eps_hat), the parameters re-collected and re-assigned every
    step, batch-norm statistics from .mean / .var, and the input gradient
    computed too.
    Returns (trained_net, per-epoch metrics) like train."""
    from relukit.network import BatchNorm1DNode, FullyConnectedNode

    net = net.copy()
    metrics = []
    if config.epochs == 0 or not dataset.train:
        return net, metrics

    def stack(samples):
        return (np.stack([s.input for s in samples]),
                np.array([s.label for s in samples], dtype=np.int64))

    def collect():
        params = {}
        for i, node in enumerate(net.nodes):
            if isinstance(node, FullyConnectedNode):
                params[f"{i}.weights"] = node.weights
                params[f"{i}.bias"] = node.bias
            elif isinstance(node, BatchNorm1DNode):
                params[f"{i}.gamma"] = node.gamma
                params[f"{i}.beta"] = node.beta
        return params

    def step(xs, labels):
        h, cache = xs, []
        for node in net.nodes:
            if isinstance(node, FullyConnectedNode):
                cache.append({"input": h})
                h = h @ node.weights.T + node.bias
            elif isinstance(node, BatchNorm1DNode):
                mu = h.mean(axis=0)
                var = h.var(axis=0)
                inv_std = 1.0 / np.sqrt(var + node.eps)
                xhat = (h - mu) * inv_std
                cache.append({"xhat": xhat, "inv_std": inv_std, "mu": mu,
                              "var": var})
                h = node.gamma * xhat + node.beta
            else:
                mask = h > 0
                cache.append({"mask": mask})
                h = h * mask
        n_b = xs.shape[0]
        shifted = h - h.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        ce = -log_p[np.arange(n_b), labels].mean()
        dh = np.exp(log_p)
        dh[np.arange(n_b), labels] -= 1.0
        dh = dh / n_b
        lam, lam_s = config.l2_lambda, config.slim_lambda
        grads, l2_term, slim_term = {}, 0.0, 0.0
        for i in range(len(net.nodes) - 1, -1, -1):
            node = net.nodes[i]
            if isinstance(node, FullyConnectedNode):
                dw = dh.T @ cache[i]["input"]
                db = dh.sum(axis=0)
                dh = dh @ node.weights
                if lam > 0:
                    l2_term += 0.5 * lam / n_b * float(np.sum(node.weights ** 2))
                    dw = dw + lam / n_b * node.weights
                grads[f"{i}.weights"], grads[f"{i}.bias"] = dw, db
            elif isinstance(node, BatchNorm1DNode):
                xhat, inv_std = cache[i]["xhat"], cache[i]["inv_std"]
                dgamma = (dh * xhat).sum(axis=0)
                dbeta = dh.sum(axis=0)
                dxhat = dh * node.gamma
                dh = inv_std * (dxhat - dxhat.mean(axis=0)
                                - xhat * (dxhat * xhat).mean(axis=0))
                if lam_s > 0:
                    slim_term += lam_s * float(np.sum(np.abs(node.gamma)))
                    dgamma = dgamma + lam_s * np.sign(node.gamma)
                grads[f"{i}.gamma"], grads[f"{i}.beta"] = dgamma, dbeta
            else:
                dh = dh * cache[i]["mask"]
        bn_stats = {i: (c["mu"], c["var"]) for i, c in enumerate(cache)
                    if "mu" in c}
        return ce + l2_term + slim_term, grads, (float(ce), float(l2_term),
                                                float(slim_term)), bn_stats

    def misclassified(xs, ys):
        h = xs
        for node in net.nodes:
            if isinstance(node, FullyConnectedNode):
                h = h @ node.weights.T + node.bias
            elif isinstance(node, BatchNorm1DNode):
                scale = node.gamma / np.sqrt(node.running_var + node.eps)
                h = scale * (h - node.running_mean) + node.beta
            else:
                h = np.maximum(0.0, h)
        return int((h.argmax(axis=1) != ys).sum())

    xs_all, ys_all = stack(dataset.train)
    n = xs_all.shape[0]
    rng = np.random.default_rng(config.seed)
    moments_m, moments_v, t = {}, {}, 0
    b1, b2 = config.beta1, config.beta2
    has_bn = any(isinstance(node, BatchNorm1DNode) for node in net.nodes)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        starts = list(range(0, n, config.batch_size))
        if has_bn and len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        sums = [0.0, 0.0, 0.0, 0.0]
        for b, start in enumerate(starts):
            idx = (perm[start:start + config.batch_size]
                   if b < len(starts) - 1 else perm[start:])
            loss, grads, parts, bn_stats = step(xs_all[idx], ys_all[idx])
            t += 1
            for key, theta in collect().items():
                g = grads[key]
                m = moments_m.get(key, np.zeros_like(theta))
                v = moments_v.get(key, np.zeros_like(theta))
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                moments_m[key], moments_v[key] = m, v
                c1, c2 = 1 - b1 ** t, 1 - b2 ** t
                alpha_t = config.learning_rate * np.sqrt(c2) / c1
                eps_hat = config.adam_eps * np.sqrt(c2)
                idx_node, name = key.split(".")
                setattr(net.nodes[int(idx_node)], name,
                        theta - alpha_t * (m / (np.sqrt(v) + eps_hat)))
            for i, (mu, var) in bn_stats.items():
                bn = net.nodes[i]
                bn.running_mean = ((1 - config.bn_momentum) * bn.running_mean
                                   + config.bn_momentum * mu)
                bn.running_var = ((1 - config.bn_momentum) * bn.running_var
                                  + config.bn_momentum * var)
            sums[0] += loss
            for k in range(3):
                sums[k + 1] += parts[k]
        n_batches = len(starts)
        err01 = misclassified(xs_all, ys_all) / n
        test_acc = (1.0 - misclassified(*stack(dataset.test))
                    / len(dataset.test) if dataset.test else float("nan"))
        sq = sum(float(np.sum(node.weights ** 2)) for node in net.nodes
                 if isinstance(node, FullyConnectedNode))
        reg = np.sqrt(sq) / (2 * n)
        metrics.append({
            "epoch": epoch,
            "loss": sums[0] / n_batches,
            "loss_surrogate": sums[1] / n_batches,
            "loss_l2": sums[2] / n_batches,
            "loss_slim": sums[3] / n_batches,
            "literal_objective": err01 + config.l2_lambda * reg,
            "literal_err01": err01,
            "literal_regularizer": reg,
            "train_accuracy": 1.0 - err01,
            "test_accuracy": test_acc,
        })
    return net, metrics


def relu_relaxation(lo, hi):
    """verifier._relu_relaxation as it was before slopes and shifts were
    computed at the unstable neurons only: (lower, upper, shift) over every
    neuron, with a zero shift where the ReLU is stable."""
    unstable = (lo < 0.0) & (hi > 0.0)
    active = lo >= 0.0
    upper = np.where(unstable, hi / np.where(unstable, hi - lo, 1.0), active)
    lower = np.where(unstable, hi > -lo, active).astype(np.float64)
    return lower, upper, np.where(unstable, -upper * lo, 0.0)


def reference_bound(net, box, violation=()):
    """verifier._bound as it was before the violation was compiled, kept as
    the reference the bounding step must match bit for bit: the output's
    back-substitution runs on every call with a violation, the atoms are
    stacked and the disjuncts split on every call, and the last hidden
    layer's relaxation is always made. `violation` is a list of disjuncts of
    LinearAtoms. Returns (pre_lo, pre_hi, unstable, alive) like _bound."""
    from relukit.network import FullyConnectedNode

    def interval_fc(node, lo, hi):
        w_pos = np.maximum(node.weights, 0.0)
        w_neg = np.minimum(node.weights, 0.0)
        return (w_pos @ lo + w_neg @ hi + node.bias,
                w_pos @ hi + w_neg @ lo + node.bias)

    def box_min(coeffs, lo, hi):
        return np.maximum(coeffs, 0.0) @ lo + np.minimum(coeffs, 0.0) @ hi

    def back_substitute(coeffs, const, fcs, relaxations):
        for node, (lower, upper, shift) in zip(
                reversed(fcs[:len(relaxations)]), reversed(relaxations)):
            neg = np.minimum(coeffs, 0.0)
            const = const + neg @ shift
            coeffs = np.maximum(coeffs, 0.0) * lower + neg * upper
            const = const + coeffs @ node.bias
            coeffs = coeffs @ node.weights
        return box_min(coeffs, box.lo, box.hi) + const

    fcs = [n for n in net.nodes if isinstance(n, FullyConnectedNode)]
    relaxations, pre_lo, pre_hi = [], [np.zeros(0)], [np.zeros(0)]
    lo, hi = box.lo, box.hi
    for node in fcs[:-1]:
        lo, hi = interval_fc(node, lo, hi)
        if relaxations:
            w, b, n = node.weights, node.bias, node.out_dim
            back = back_substitute(np.vstack([w, -w]), np.concatenate([b, -b]),
                                   fcs, relaxations)
            lo, hi = np.maximum(lo, back[:n]), np.minimum(hi, -back[n:])
        pre_lo.append(lo)
        pre_hi.append(hi)
        relaxations.append(relu_relaxation(lo, hi))
        lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    pre_lo, pre_hi = np.concatenate(pre_lo), np.concatenate(pre_hi)
    unstable = int(np.sum((pre_lo < 0.0) & (pre_hi > 0.0)))
    if not violation:
        return pre_lo, pre_hi, unstable, []
    out = fcs[-1]
    out_lo, out_hi = interval_fc(out, lo, hi)
    rows = np.stack([a.coeffs for d in violation for a in d])
    rhs = np.array([a.rhs for d in violation for a in d])
    refuted = ((box_min(rows, out_lo, out_hi) > rhs)
               | (back_substitute(rows @ out.weights, rows @ out.bias, fcs,
                                  relaxations) > rhs))
    ends = np.cumsum([len(d) for d in violation])
    alive = [j for j, part in enumerate(np.split(refuted, ends[:-1]))
             if not part.any()]
    return pre_lo, pre_hi, unstable, alive


def reference_validate(net):
    """network.validate as it was before its finiteness checks were joined
    into one pass, kept as the reference for its error list: one isfinite
    per parameter array, node by node."""
    from relukit.network import BatchNorm1DNode, FullyConnectedNode, ReLUNode

    errors = []
    if net.input_dim <= 0:
        errors.append(f"input_dim must be positive, got {net.input_dim}")
    if not net.nodes:
        errors.append("network has no nodes")
        return errors

    cur = net.input_dim
    for i, node in enumerate(net.nodes):
        if isinstance(node, FullyConnectedNode):
            d_in, d_out = node.in_dim, node.out_dim
        else:
            d_in, d_out = node.dim, node.dim
        if d_in != cur:
            errors.append(f"dim mismatch at node {i}: expected input {cur}, "
                          f"got {d_in}")
        cur = d_out
        if isinstance(node, FullyConnectedNode):
            if (not np.isfinite(node.weights).all()
                    or not np.isfinite(node.bias).all()):
                errors.append(f"non-finite parameters at node {i}")
        elif isinstance(node, BatchNorm1DNode):
            for name, v in (("gamma", node.gamma), ("beta", node.beta),
                            ("running_mean", node.running_mean),
                            ("running_var", node.running_var)):
                if v.shape[0] != node.dim:
                    errors.append(f"{name} length {v.shape[0]} != dim "
                                  f"{node.dim} at node {i}")
                if not np.isfinite(v).all():
                    errors.append(f"non-finite {name} at node {i}")
            if (node.running_var < 0).any():
                errors.append(f"negative running_var at node {i}")
            if node.eps <= 0:
                errors.append(f"eps must be positive at node {i}")

    i, n = 0, len(net.nodes)
    while i < n:
        node = net.nodes[i]
        if not isinstance(node, FullyConnectedNode):
            errors.append(f"canonical-form error at node {i}: expected "
                          f"fully-connected, got {type(node).__name__}")
            break
        if i == n - 1:
            break
        i += 1
        if isinstance(net.nodes[i], BatchNorm1DNode):
            i += 1
        if i >= n or not isinstance(net.nodes[i], ReLUNode):
            got = type(net.nodes[i]).__name__ if i < n else "end of network"
            errors.append(f"canonical-form error at node "
                          f"{i if i < n else n - 1}: hidden block must end "
                          f"with ReLU, got {got}")
            break
        i += 1
        if i >= n:
            errors.append(f"canonical-form error at node {n - 1}: "
                          "network must end with a fully-connected layer")
            break
    return errors
