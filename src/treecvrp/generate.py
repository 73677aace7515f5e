"""Deterministic instance generators for tests and benchmarks.

Every shape is a pure function of (shape, n, Q, demand_model, seed); the same
arguments always produce the identical instance.
"""

from __future__ import annotations

import random

from .instance import TreeInstance

SHAPES = ("random", "star", "path", "binary", "parallel-paths")
DEMAND_MODELS = ("unit", "uniform", "heavy")

MAX_PARALLEL_PATHS = 12
MAX_WEIGHT = 9


def check_args(shape: str, n: int, capacity: int, demand_model: str) -> None:
    """Raise ``ValueError`` unless ``generate`` accepts these arguments."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; choose from {SHAPES}")
    if demand_model not in DEMAND_MODELS:
        raise ValueError(
            f"unknown demand model {demand_model!r}; choose from {DEMAND_MODELS}")
    if n < 2 or capacity < 1:
        raise ValueError("need n >= 2 and Q >= 1")


def generate(shape: str, n: int, capacity: int, demand_model: str = "unit",
             seed: int = 0) -> TreeInstance:
    check_args(shape, n, capacity, demand_model)
    rng = random.Random((shape, n, capacity, demand_model, seed).__repr__())
    parent = _shape_parents(shape, n, rng)
    if shape == "star":
        weight = (0,) + (1,) * (n - 1)  # the canonical unit star
    else:
        weight = (0,) + tuple(rng.randint(1, MAX_WEIGHT) for _ in range(n - 1))
    demand = _demands(demand_model, n, capacity, rng)
    return TreeInstance(tuple(parent), weight, demand, capacity)


def _shape_parents(shape: str, n: int, rng: random.Random) -> list[int]:
    if shape == "star":
        return [-1] + [0] * (n - 1)
    if shape == "path":
        return [-1] + list(range(n - 1))
    if shape == "binary":
        return [-1] + [(v - 1) // 2 for v in range(1, n)]
    if shape == "parallel-paths":
        k = min(MAX_PARALLEL_PATHS, n - 1)
        parent = [-1]
        for v in range(1, n):
            if v <= k:
                parent.append(0)  # one path head per branch
            else:
                parent.append(v - k)  # extend the paths round-robin
        return parent
    # random: attach each node to a uniformly random earlier node
    return [-1] + [rng.randrange(v) for v in range(1, n)]


def _demands(model: str, n: int, q: int, rng: random.Random) -> tuple[int, ...]:
    if model == "unit":
        return (0,) + (1,) * (n - 1)
    if model == "uniform":
        hi = max(1, q - 1)
        return (0,) + tuple(rng.randint(1, hi) for _ in range(n - 1))
    # heavy: a few nodes get >= Q tokens so normalize_demands has work to do
    demand = [0] + [rng.randint(0, max(1, q - 1)) for _ in range(n - 1)]
    for v in rng.sample(range(1, n), max(1, (n - 1) // 4)):
        demand[v] = q + rng.randint(0, q)
    if sum(demand) == 0:
        demand[-1] = 1
    return tuple(demand)


def stress_instance(n: int = 25, capacity: int = 3,
                    seed: int = 0) -> TreeInstance:
    """Parallel-paths stress shape with demand only at the path leaves.

    Keeps the token count at the number of paths, so the exact oracle still
    applies while the root sees many parallel partial tours.
    """
    inst = generate("parallel-paths", n, capacity, "unit", seed)
    k = min(MAX_PARALLEL_PATHS, n - 1)
    leaves = [v for v in range(1, inst.n) if not inst.children[v]]
    demand = [0] * inst.n
    for v in leaves:
        demand[v] = 1
    assert len(leaves) == k
    return inst.replace(demand=tuple(demand))
