"""Toolkit for training, pruning, verifying and repairing fully-connected
ReLU networks with batch normalization."""

from .datasets import Dataset, Sample, load_idx_dataset, synth_blobs
from .model_io import load_model, save_model
from .network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                      SequentialNetwork, fold_batchnorm, forward,
                      network_stats, validate)
from .properties import (Box, LinearAtom, Property, emit_smtlib, parse_smtlib,
                         robustness_property)
from .pruning import (PruningConfig, network_slim, prune_pipeline,
                      select_slim_targets, weight_prune)
from .repair import RepairConfig, repair
from .training import (AdamState, TrainingConfig, adam_step, evaluate,
                       init_network, loss_and_grads, train)
from .verifier import (BabConfig, Status, VerificationResult, falsify_sample,
                       interval_forward, verify_bab)

__version__ = "0.1.0"
