"""Classical baseline solver and lower bound.

``flow_lower_bound`` is the per-edge flow bound: every edge e must be crossed
by at least ceil(D_e / Q) tours, each paying 2*w(e). ``itp_solve`` is iterated
tour partitioning: lay the tokens out in DFS order and cut the sequence into
consecutive capacity-Q blocks. It needs no tour costing: the tokens of a
subtree form one contiguous interval of that order, so the blocks that cross
an edge are exactly the blocks that meet its subtree's interval, and one walk
both cuts the blocks and counts them per edge.
"""

from __future__ import annotations

from .instance import Solution, Tour, TreeInstance, Weight, _as_weight


def flow_need(inst: TreeInstance, cap: int) -> list[int]:
    """ceil(D_e / cap) for the edge e above each node: the fewest tours of at
    most ``cap`` tokens that serve the subtree below e (exact integers)."""
    return [-(-d // cap) for d in inst.subtree_demand]


def flow_lower_bound(inst: TreeInstance) -> Weight:
    need = flow_need(inst, inst.capacity)
    total = 0
    for v in range(1, inst.n):
        if need[v]:
            total += 2 * inst.weight[v] * need[v]
    return total


def itp_solve(inst: TreeInstance) -> Solution:
    """Cut the DFS token order into capacity-Q blocks, one tour per block.

    One preorder walk, children ascending, that skips subtrees without
    demand. The tokens of subtree(v) are the D = D_v consecutive positions
    from t, the number of tokens laid out before v, so the edge above v is
    crossed by the blocks t//Q .. (t+D-1)//Q, and the cost is
    2 * sum w(v) * ((t+D-1)//Q - t//Q + 1) over v != 0 with D > 0.
    """
    q = inst.capacity
    demand, weight = inst.demand, inst.weight
    children, below = inst.children, inst.subtree_demand
    tours: list[Tour] = []
    block: dict[int, int] = {}
    room = q
    t = 0  # tokens laid out before the current node
    crossed: Weight = 0  # sum of w(e) * blocks crossing e
    stack = [0]
    while stack:
        v = stack.pop()
        if v:
            crossed += weight[v] * ((t + below[v] - 1) // q - t // q + 1)
        d = demand[v]
        t += d
        while d:
            take = min(d, room)
            block[v] = take  # v's tokens are contiguous: one entry per block
            d -= take
            room -= take
            if not room:
                tours.append(Tour(tuple(sorted(block.items()))))
                block, room = {}, q
        for c in reversed(children[v]):
            if below[c]:
                stack.append(c)
    if block:
        tours.append(Tour(tuple(sorted(block.items()))))
    return Solution(tuple(tours), _as_weight(2 * crossed))
