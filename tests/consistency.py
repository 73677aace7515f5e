"""The paper's consistency table, kept as the spec of the profile DP's fold.

``check_consistency(o, z_v, z1, z2)`` says whether the tours of two children
(size multisets z1 and z2) and o tokens at the node can form the node's tours
z_v. Folding z1, z2 and then the table of the o tokens (``dp._own_tokens``)
with ``merge_child_table`` must yield exactly the profiles z_v for which it
holds. ``brute_consistent`` is an independent exhaustive matcher.
"""


def check_consistency(o_v, z_v, z1, z2, _memo=None):
    """Can the tours of z1 and z2 combine into the tours of z_v?

    Each z_v tour absorbs at most one tour from z1 and at most one from z2,
    plus o_c >= 0 extra tokens at the node; every z1/z2 tour must be absorbed
    and the extra tokens must total exactly o_v. Vectors are tour-size
    multisets (any order).
    """
    if o_v < 0:
        return False
    memo = _memo if _memo is not None else {}
    state = (o_v, tuple(sorted(z_v)), tuple(sorted(z1)), tuple(sorted(z2)))
    return _consistent(state, memo)


def _consistent(state, memo):
    if state in memo:
        return memo[state]
    o_v, z_v, z1, z2 = state
    if not z_v:
        res = o_v == 0 and not z1 and not z2
        memo[state] = res
        return res
    t_v, rest_v = z_v[0], z_v[1:]
    res = False
    for i in range(-1, len(z1)):
        if i > 0 and z1[i] == z1[i - 1]:
            continue  # identical left tours are interchangeable
        a = z1[i] if i >= 0 else 0
        r1 = z1[:i] + z1[i + 1:] if i >= 0 else z1
        for j in range(-1, len(z2)):
            if j > 0 and z2[j] == z2[j - 1]:
                continue
            b = z2[j] if j >= 0 else 0
            o_c = t_v - a - b
            if o_c < 0 or o_c > o_v:
                continue
            r2 = z2[:j] + z2[j + 1:] if j >= 0 else z2
            if _consistent((o_v - o_c, rest_v, r1, r2), memo):
                res = True
                break
        if res:
            break
    memo[state] = res
    return res


def brute_consistent(o_v, z_v, z1, z2):
    """Exhaustive matcher: try every injective assignment of z1/z2 tours to
    z_v tours and every split of the extra tokens."""
    z_v, z1, z2 = list(z_v), list(z1), list(z2)

    def rec(idx, rem1, rem2, extra):
        if idx == len(z_v):
            return not rem1 and not rem2 and extra == 0
        t = z_v[idx]
        for i in [None] + list(range(len(rem1))):
            for j in [None] + list(range(len(rem2))):
                a = rem1[i] if i is not None else 0
                b = rem2[j] if j is not None else 0
                o_c = t - a - b
                if o_c < 0 or o_c > extra:
                    continue
                n1 = rem1[:i] + rem1[i + 1:] if i is not None else rem1
                n2 = rem2[:j] + rem2[j + 1:] if j is not None else rem2
                if rec(idx + 1, n1, n2, extra - o_c):
                    return True
        return False

    return rec(0, z1, z2, o_v)
