"""Marginal evidence probabilities in categorical Bayesian networks.

The core operation is ``marginal(bn, evidence)``: it prunes the network to
the part that matters, splits the remaining hidden nodes into conditionally
independent subsets given the evidence, sums small subsets exactly with a
junction tree, and estimates large ones by importance sampling guided by
loopy belief propagation.  Whole-graph baselines, random-network generators,
a benchmark harness, an incomplete-record classifier, and a text file format
sit on top.
"""

from .decompose import SubsetBoundary, SubsetDecomposition, decompose, find_subsets
from .engine import (
    METHODS,
    MarginalEstimate,
    SgsConfig,
    SubsetReport,
    marginal,
    marginal_sgs,
)
from .errors import (
    ArgumentError,
    BnmargError,
    CapacityError,
    ClassificationError,
    CycleError,
    DataFormatError,
    DomainError,
    InvalidAssignmentError,
    NetworkFormatError,
    ParameterError,
    UnknownNodeError,
)
from .graphs import Dag
from .junction import build_junction_tree
from .netformat import parse_dataset, parse_network, serialize_dataset, serialize_network
from .network import (
    CategoricalBN,
    sample_forward,
    validate,
    validate_evidence,
)
from .randnet import GenSpec, gen_cpts, gen_dag, gen_network, nrmse, pick_evidence
from .bench import BenchResult, BenchRow, run_benchmark
from .classify import PartialRecord, classify, classify_drop_missing, roc_auc
from .sampling import ImportanceDistribution, SamplerConfig, loopy_bp

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BenchResult",
    "BenchRow",
    "BnmargError",
    "CapacityError",
    "CategoricalBN",
    "ClassificationError",
    "CycleError",
    "Dag",
    "DataFormatError",
    "DomainError",
    "GenSpec",
    "ImportanceDistribution",
    "InvalidAssignmentError",
    "METHODS",
    "MarginalEstimate",
    "NetworkFormatError",
    "ParameterError",
    "PartialRecord",
    "SamplerConfig",
    "SgsConfig",
    "SubsetBoundary",
    "SubsetDecomposition",
    "SubsetReport",
    "UnknownNodeError",
    "build_junction_tree",
    "classify",
    "classify_drop_missing",
    "decompose",
    "find_subsets",
    "gen_cpts",
    "gen_dag",
    "gen_network",
    "loopy_bp",
    "marginal",
    "marginal_sgs",
    "nrmse",
    "parse_dataset",
    "parse_network",
    "pick_evidence",
    "roc_auc",
    "sample_forward",
    "serialize_dataset",
    "serialize_network",
    "validate",
    "validate_evidence",
]
