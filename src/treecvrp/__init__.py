"""Capacitated vehicle routing on rooted trees."""

from .baselines import flow_lower_bound, itp_solve
from .dp import DPParams, solve_bicriteria, solve_structured
from .exact import solve_exact
from .generate import generate
from .height import build_reduced_tree
from .instance import (Solution, Tour, TreeInstance, load_instance,
                       load_solution, normalize_demands, save_instance,
                       save_solution)
from .structure import TransformParams, thresholds, transform
from .verify import check_feasible

__all__ = [
    "DPParams", "Solution", "Tour", "TransformParams", "TreeInstance",
    "build_reduced_tree", "check_feasible", "flow_lower_bound", "generate",
    "itp_solve", "load_instance", "load_solution", "normalize_demands",
    "save_instance", "save_solution", "solve_bicriteria", "solve_exact",
    "solve_structured", "thresholds", "transform",
]
