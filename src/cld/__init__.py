"""Convex language-detection head with machine-checkable robustness certificates.

Train a two-layer ReLU detection head on pooled encoder embeddings by solving
a convex group-norm program with consensus ADMM, map the solution back to an
explicit ReLU network, and read off variation-norm Lipschitz bounds and
certified margin-stability radii for every prediction.
"""

__version__ = "0.1.0"

from .admm import AdmmConfig, GateConfig, train
from .cert import CertificateBundle, Certificates, certify_batch
from .dataio import FeatureMatrix, LabelSet, SequenceFeature, load_manifest, pool_masked_mean
from .gates import GateSet, enumerate_patterns, sample_gates
from .head import ReluNetwork, TrainedHead, load_model, predict, save_model, to_relu
from .linops import GatedOperator
from .metrics import EvalReport, evaluate
from .oracle import FistaConfig, dense_solve_smallest, fista_solve
from .synth import SynthSpec, generate, split

__all__ = [
    "AdmmConfig",
    "CertificateBundle",
    "Certificates",
    "EvalReport",
    "FeatureMatrix",
    "FistaConfig",
    "GateConfig",
    "GateSet",
    "GatedOperator",
    "LabelSet",
    "ReluNetwork",
    "SequenceFeature",
    "SynthSpec",
    "TrainedHead",
    "certify_batch",
    "dense_solve_smallest",
    "enumerate_patterns",
    "evaluate",
    "fista_solve",
    "generate",
    "load_manifest",
    "load_model",
    "pool_masked_mean",
    "predict",
    "sample_gates",
    "save_model",
    "split",
    "to_relu",
    "train",
]
