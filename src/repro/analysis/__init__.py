"""Analyses: the generic fixpoint engine and its configurations —
pre-analysis, dense (vanilla/base), sparse, and relational."""

from repro.analysis.defuse import DefUseInfo, compute_defuse
from repro.analysis.dense import run_dense
from repro.analysis.engine import (
    CfgSpace,
    DepGraphSpace,
    FixpointEngine,
    FixpointResult,
    FixpointStats,
    PropagationSpace,
    StateLattice,
)
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.analysis.schedule import GraphView, widening_points_for
from repro.analysis.sparse import run_sparse

__all__ = [
    "DefUseInfo",
    "compute_defuse",
    "run_dense",
    "CfgSpace",
    "DepGraphSpace",
    "FixpointEngine",
    "FixpointResult",
    "FixpointStats",
    "PropagationSpace",
    "StateLattice",
    "GraphView",
    "widening_points_for",
    "PreAnalysis",
    "run_preanalysis",
    "run_sparse",
]
