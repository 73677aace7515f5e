"""Height reduction: path decomposition, anchor selection and up-pushes.

The tree's edge set is decomposed into heavy-path-style levels; long paths are
compressed by making the nodes between consecutive anchors zero-weight children
of the earlier anchor, with the anchor-to-anchor edge carrying the summed
segment weight. Distances to the root never increase, so any solution projects
to the reduced tree at no extra cost and lifts back at a small one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instance import Solution, TreeInstance, Weight, as_fraction


@dataclass(frozen=True)
class PathDecomposition:
    """Edge-disjoint paths grouped into levels.

    Each path is the node list [top, ..., leaf]; the top node of a non-level-1
    path belongs to a lower level (it is the attachment point), and the path
    owns the edges between consecutive entries.
    """

    levels: tuple[tuple[tuple[int, ...], ...], ...]
    node_level: tuple[int, ...]

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def decompose_paths(inst: TreeInstance) -> PathDecomposition:
    """The D-paths are ``inst.preorder``'s heavy paths, read in one pass.

    Each node continues into its child with the largest subtree, the smallest
    id on ties. In the heavy-first preorder a heavy path is a run of
    consecutive positions with one position-indexed ``head``: a position p
    with ``head[p] == p`` starts one, attached at its node's parent one
    level below that node's level (the depot's path is level 1), and each
    later position of the run extends it.
    """
    pos, head, _, _ = inst.preorder
    parent = inst.parent
    order = [0] * inst.n
    for v, p in enumerate(pos):
        order[p] = v
    node_level = [0] * inst.n
    levels: list[list[list[int]]] = []
    for p, v in enumerate(order):
        if head[p] == p:
            if v:
                attach = parent[v]
                lvl = node_level[attach] + 1
                path = [attach, v]
            else:
                lvl, path = 1, [0]
            if lvl > len(levels):
                levels.append([])
            levels[lvl - 1].append(path)
        else:
            path.append(v)
        node_level[v] = lvl
    return PathDecomposition(
        tuple(tuple(map(tuple, sorted(lv))) for lv in levels),
        tuple(node_level))


def select_anchors(weights: list[Weight],
                   eps: Fraction | float) -> list[int]:
    """Anchor positions on a path given its consecutive edge weights.

    ``weights[i]`` is the weight of the edge between path nodes i and i+1.
    Returns indices into the node list; index 0 and the last node are always
    anchors, index 1 is the second anchor. A float eps counts as the decimal
    it prints (``as_fraction``).
    """
    k = len(weights)  # number of edges; nodes are 0..k
    if k == 0:
        return [0]
    eps = as_fraction(eps)
    integral = all(isinstance(w, int) for w in weights)
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    anchors = [0, 1]
    while anchors[-1] < k:
        a = anchors[-1]
        budget = eps * prefix[a]
        if integral:  # an int weight fits the budget iff it fits its floor
            budget = math.floor(budget)
        # farthest j such that the weight from a to the node before j fits
        j = a + 1
        while j < k and prefix[j] - prefix[a] <= budget:
            j += 1
        if prefix[k - 1] - prefix[a] <= budget:
            j = k  # whole tail within the budget: last node is the next anchor
        anchors.append(j)
    return anchors


@dataclass(frozen=True)
class ReducedTree:
    """A height-reduced tree and the tree it came from.

    When no edge was zeroed the reduction changed nothing, and ``tree`` is
    ``original`` itself, with its cached tables.
    """

    tree: TreeInstance
    original: TreeInstance  # same node ids as ``tree``
    zeroed_edges: tuple[int, ...]  # nodes whose parent edge was zeroed


def path_length_trigger(n: int, eps: Fraction | float) -> int:
    """floor(log2(n)/eps), exact, so that a tiny eps does not divide by a
    float 0; a path of k edges triggers when k exceeds it. A float eps counts
    as the decimal it prints: 0.1 is 1/10 (``as_fraction``)."""
    return math.floor(Fraction(math.log2(max(n, 2))) / as_fraction(eps))


def build_reduced_tree(inst: TreeInstance,
                       eps: Fraction | float) -> ReducedTree:
    """Compress every D-path longer than ``path_length_trigger`` edges.

    A float eps counts as the decimal it prints, as in the trigger, so 0.1
    and ``Fraction(1, 10)`` reduce a tree the same way. Returns
    ``ReducedTree(inst, inst, ())`` when no edge is zeroed: an anchor step of
    one edge writes back the same parent and weight, so the tree is unchanged
    and ``inst`` comes back.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps = as_fraction(eps)
    decomp = decompose_paths(inst)
    parent = list(inst.parent)
    weight = list(inst.weight)
    trigger = path_length_trigger(inst.n, eps)
    zeroed: list[int] = []
    for level in decomp.levels:
        for path in level:
            n_edges = len(path) - 1
            if n_edges <= trigger:
                continue
            edge_w = [inst.weight[path[i + 1]] for i in range(n_edges)]
            anchors = select_anchors(edge_w, eps)
            for ai, aj in zip(anchors, anchors[1:]):
                a_node = path[ai]
                seg = sum(edge_w[ai:aj])
                for mid in range(ai + 1, aj):
                    parent[path[mid]] = a_node
                    weight[path[mid]] = 0
                    zeroed.append(path[mid])
                parent[path[aj]] = a_node
                weight[path[aj]] = seg
    if not zeroed:
        return ReducedTree(inst, inst, ())
    reduced = TreeInstance(tuple(parent), tuple(weight), inst.demand, inst.capacity)
    return ReducedTree(reduced, inst, tuple(sorted(zeroed)))


def lift_solution(rt: ReducedTree, sol: Solution) -> Solution:
    """Re-cost a reduced-tree solution on the original tree.

    ``sol`` is checked in full on ``rt.tree``. When that tree is the original
    (the reduction changed nothing), the check's cost is the lifted cost, so
    the tours are priced once; otherwise they are priced again on the
    original.
    """
    from .verify import check_feasible

    report = check_feasible(rt.tree, sol)
    if not report.ok:
        raise ValueError(f"solution infeasible on reduced tree: {report.violations}")
    if rt.tree is rt.original:
        return Solution(sol.tours, report.recomputed_cost)
    return Solution.of(rt.original, sol.tours)
