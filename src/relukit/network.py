"""Internal network representation: a validated sequence of layer nodes.

A canonical network is a chain of hidden blocks, each fully-connected
optionally followed by 1-D batch norm and then ReLU, ending in a bare
fully-connected output layer (no activation after it).
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .tensor import (ShapeMismatchError, as_matrix, as_vector, check_fields,
                     check_finite)

__all__ = [
    "FullyConnectedNode",
    "BatchNorm1DNode",
    "ReLUNode",
    "SequentialNetwork",
    "validate",
    "forward",
    "forward_batch",
    "fold_batchnorm",
    "network_stats",
]


@dataclass
class FullyConnectedNode:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)

    def __post_init__(self):
        self.weights = as_matrix(self.weights, "weights")
        self.bias = as_vector(self.bias, "bias")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class BatchNorm1DNode:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in _ARRAYS[BatchNorm1DNode]:
            setattr(self, name, as_vector(getattr(self, name), name))
        check_fields(self)
        self.eps = float(self.eps)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def scale(self) -> np.ndarray:
        """Inference-mode multiplier gamma / sqrt(var + eps)."""
        return self.gamma / np.sqrt(self.running_var + self.eps)


@dataclass
class ReLUNode:
    dim: int

    def __post_init__(self):
        check_fields(self)


LayerNode = FullyConnectedNode | BatchNorm1DNode | ReLUNode

# Each layer kind is declared by its fields: those annotated np.ndarray are
# its parameter arrays, in field order; the others are typed by
# check_fields.
_ARRAYS = {kind: tuple(f.name for f in fields(kind) if f.type is np.ndarray)
           for kind in (FullyConnectedNode, BatchNorm1DNode, ReLUNode)}
_SCALARS = {kind: tuple(f.name for f in fields(kind)
                        if f.name not in _ARRAYS[kind]) for kind in _ARRAYS}


def _params(node: LayerNode) -> tuple:
    """node's parameter arrays, in field order."""
    return tuple(getattr(node, name) for name in _ARRAYS[type(node)])


def _copy_node(node: LayerNode, fn=np.ndarray.copy) -> LayerNode:
    """A copy of node with each parameter array a replaced by fn(a), by
    default a copy of a."""
    out = object.__new__(type(node))
    out.__dict__.update(node.__dict__)
    for name in _ARRAYS[type(node)]:
        setattr(out, name, fn(getattr(node, name)))
    return out


@dataclass
class SequentialNetwork:
    name: str
    input_dim: int
    nodes: list = field(default_factory=list)

    def __post_init__(self):
        check_fields(self)

    @property
    def output_dim(self) -> int:
        if not self.nodes:
            return self.input_dim
        last = self.nodes[-1]
        return last.out_dim if isinstance(last, FullyConnectedNode) else last.dim

    def copy(self) -> "SequentialNetwork":
        """A copy that shares no array with self."""
        return SequentialNetwork(self.name, self.input_dim,
                                 [_copy_node(n) for n in self.nodes])


def _node_dims(node: LayerNode) -> tuple[int, int]:
    if isinstance(node, FullyConnectedNode):
        return node.in_dim, node.out_dim
    return node.dim, node.dim


def validate(net: SequentialNetwork) -> list[str]:
    """Return a list of structural problems; empty means the network is ok."""
    errors: list[str] = []
    if net.input_dim <= 0:
        errors.append(f"input_dim must be positive, got {net.input_dim}")
    if not net.nodes:
        errors.append("network has no nodes")
        return errors

    cur = net.input_dim
    for i, node in enumerate(net.nodes):
        d_in, d_out = _node_dims(node)
        if d_in != cur:
            errors.append(f"dim mismatch at node {i}: expected input {cur}, got {d_in}")
        cur = d_out
        if isinstance(node, FullyConnectedNode):
            if not all(np.isfinite(a).all() for a in _params(node)):
                errors.append(f"non-finite parameters at node {i}")
        elif isinstance(node, BatchNorm1DNode):
            for name, v in zip(_ARRAYS[BatchNorm1DNode], _params(node)):
                if v.shape[0] != node.dim:
                    errors.append(f"{name} length {v.shape[0]} != dim {node.dim} at node {i}")
                if not np.isfinite(v).all():
                    errors.append(f"non-finite {name} at node {i}")
            if (node.running_var < 0).any():
                errors.append(f"negative running_var at node {i}")
            if node.eps <= 0:
                errors.append(f"eps must be positive at node {i}")

    # Canonical block pattern: (FC [BN] ReLU)* FC
    i, n = 0, len(net.nodes)
    while i < n:
        node = net.nodes[i]
        if not isinstance(node, FullyConnectedNode):
            errors.append(f"canonical-form error at node {i}: expected fully-connected, "
                          f"got {type(node).__name__}")
            break
        if i == n - 1:
            break  # output layer, done
        i += 1
        if isinstance(net.nodes[i], BatchNorm1DNode):
            i += 1
        if i >= n or not isinstance(net.nodes[i], ReLUNode):
            got = type(net.nodes[i]).__name__ if i < n else "end of network"
            errors.append(f"canonical-form error at node {i if i < n else n - 1}: "
                          f"hidden block must end with ReLU, got {got}")
            break
        i += 1
        if i >= n:
            errors.append(f"canonical-form error at node {n - 1}: "
                          "network must end with a fully-connected layer")
            break
    return errors


def _require_valid(net: SequentialNetwork) -> None:
    errors = validate(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))


def forward(net: SequentialNetwork, x) -> np.ndarray:
    """Inference-mode output for one input vector; see forward_batch."""
    x = as_vector(x)
    if x.shape[0] != net.input_dim:
        raise ShapeMismatchError(
            f"input length {x.shape[0]} != network input_dim {net.input_dim}")
    return forward_batch(net, x[None, :])[0]


def forward_batch(net: SequentialNetwork, xs: np.ndarray) -> np.ndarray:
    """Inference forward over a (batch, input_dim) matrix of inputs; batch
    norm uses running statistics.

    Every node's output is checked for NaN/Inf, not just the result: a ReLU
    would hide a -inf pre-activation. A ReLU's own output is checked only
    when it is the first node; otherwise its input, checked above, was
    finite, and so is its output.
    """
    h = np.asarray(xs, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise ShapeMismatchError(f"expected (batch, {net.input_dim}) inputs, got {h.shape}")
    for i, node in enumerate(net.nodes):
        if isinstance(node, FullyConnectedNode):
            if h.shape[1] != node.in_dim:
                raise ShapeMismatchError(f"dim mismatch entering node {i}")
            h = h @ node.weights.T + node.bias
        elif isinstance(node, BatchNorm1DNode):
            h = node.scale() * (h - node.running_mean) + node.beta
        else:
            h = np.maximum(0.0, h)
            if i:
                continue
        check_finite(h, f"output of node {i}")
    return h


def fold_batchnorm(net: SequentialNetwork) -> SequentialNetwork:
    """Fuse every FC-BN pair into one FC node; function is preserved.

    With s = gamma / sqrt(var + eps): W' = diag(s) W, b' = s * (b - mean) + beta.
    ValueError naming the batch-norm node when W' or b' is not finite.
    """
    _require_valid(net)
    folded: list[LayerNode] = []
    i = 0
    while i < len(net.nodes):
        node = net.nodes[i]
        if (isinstance(node, FullyConnectedNode) and i + 1 < len(net.nodes)
                and isinstance(net.nodes[i + 1], BatchNorm1DNode)):
            bn = net.nodes[i + 1]
            # an overflow here is raised below as a ValueError
            with np.errstate(over="ignore", invalid="ignore"):
                s = bn.scale()
                fc = FullyConnectedNode(
                    s[:, None] * node.weights,
                    s * (node.bias - bn.running_mean) + bn.beta)
            if not all(np.isfinite(a).all() for a in _params(fc)):
                raise ValueError(f"folding the batch norm at node {i + 1} "
                                 "gives non-finite parameters")
            folded.append(fc)
            i += 2
        else:
            folded.append(_copy_node(node))
            i += 1
    return SequentialNetwork(net.name, net.input_dim, folded)


def network_stats(net: SequentialNetwork) -> dict:
    """Layer count, dims, per-layer widths and total parameter count."""
    _require_valid(net)
    widths = [net.input_dim]
    params = 0
    num_layers = 0
    for node in net.nodes:
        params += sum(a.size for a in _params(node))
        if isinstance(node, FullyConnectedNode):
            widths.append(node.out_dim)
            num_layers += 1
    return {
        "num_layers": num_layers,
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "widths": widths,
        "param_count": params,
    }
