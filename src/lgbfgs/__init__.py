"""Limited-memory greedy quasi-Newton solvers with baselines and diagnostics."""

from .errors import AggregationError, CurvatureError, DiagnosticsError
from .objectives import LogisticObjective, ObjectiveInfo, QuadraticObjective
from .pairs import PairStore

__all__ = [
    "AggregationError",
    "CurvatureError",
    "DiagnosticsError",
    "LogisticObjective",
    "ObjectiveInfo",
    "QuadraticObjective",
    "PairStore",
]

__version__ = "0.1.0"
