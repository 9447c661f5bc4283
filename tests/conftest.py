import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from relukit.network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                             SequentialNetwork)


def random_net(widths, seed=0, with_bn=True, scale=1.0):
    """Random network with nonzero gammas and positive running variances."""
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(len(widths) - 1):
        d_in, d_out = widths[i], widths[i + 1]
        nodes.append(FullyConnectedNode(
            rng.normal(0, scale / np.sqrt(d_in), size=(d_out, d_in)),
            rng.normal(0, 0.1, size=d_out)))
        if i < len(widths) - 2:
            if with_bn:
                gamma = rng.uniform(0.5, 1.5, size=d_out) * \
                    rng.choice([-1.0, 1.0], size=d_out)
                nodes.append(BatchNorm1DNode(
                    gamma, rng.normal(0, 0.3, size=d_out),
                    rng.normal(0, 0.3, size=d_out),
                    rng.uniform(0.5, 1.5, size=d_out), 1e-5))
            nodes.append(ReLUNode(d_out))
    return SequentialNetwork(f"rand-{seed}", widths[0], nodes)


def overflowing_fold_net():
    """A valid net whose batch-norm fold overflows: the scale 1e10 /
    sqrt(1e-300) = 1e160 times the weight 1e160 is inf."""
    return SequentialNetwork("overflow", 2, [
        FullyConnectedNode([[1e160, 1.0], [1.0, -1.0]], [0.0, 0.0]),
        BatchNorm1DNode([1e10, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                        eps=1e-300),
        ReLUNode(2),
        FullyConnectedNode(np.eye(2), [0.0, 0.0])])
