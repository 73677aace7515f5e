"""Shared test helpers, mostly independent re-implementations used as oracles."""

import random

from treecvrp.instance import TreeInstance


def edge_count_cost(inst, sol):
    """Independent cost oracle: per-edge crossing count, not path marking.

    A tour crosses edge (parent(v), v) iff it picks up somewhere in the
    subtree of v; each crossing costs 2*w.
    """
    total = 0
    for t in sol.tours:
        picked = {v for v, _ in t.pickups}
        for v in range(1, inst.n):
            if picked & set(inst.subtree(v)):
                total += 2 * inst.weight[v]
    return total


def random_instance(seed, max_n=8, capacities=(2, 3, 4), max_weight=5,
                    unit_demand=True, max_tokens=None):
    """Deterministic small random instance (independent of the generators)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    q = rng.choice(list(capacities))
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    weight = [0] + [rng.randint(1, max_weight) for _ in range(1, n)]
    if unit_demand:
        demand = [0] + [1] * (n - 1)
    else:
        demand = [0] + [rng.randint(0, q) for _ in range(1, n)]
        if sum(demand) == 0:
            demand[-1] = 1
    if max_tokens is not None:
        while sum(demand) > max_tokens:
            v = rng.choice([u for u in range(1, n) if demand[u]])
            demand[v] -= 1
        if sum(demand) == 0:
            demand[rng.randrange(1, n)] = 1
    return TreeInstance(tuple(parent), tuple(weight), tuple(demand), q)


def relabeled(inst, ids):
    """The same tree with node v renamed ``ids[v - 1]``; the depot stays 0.

    With ``ids`` a permutation of 1..n-1, parents can outnumber their
    children."""
    new = [0] + list(ids)  # old id -> new id
    parent, weight, demand = [-1] * inst.n, [0] * inst.n, [0] * inst.n
    for v in range(1, inst.n):
        parent[new[v]] = new[inst.parent[v]]
        weight[new[v]] = inst.weight[v]
        demand[new[v]] = inst.demand[v]
    return TreeInstance(tuple(parent), tuple(weight), tuple(demand),
                        inst.capacity)
