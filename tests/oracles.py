"""Brute-force reference implementations used to cross-check the package.

Everything here favours the most literal reading of a definition over
speed: plain Python loops, no numpy, no code shared with omtense. When a
test compares a computed table against one of these, the two sides reach
the value by different routes.
"""

from itertools import product


def closure_from_covers(n, covers):
    """Reflexive-transitive reachability over cover edges, by DFS per node."""
    adj = {i: set() for i in range(n)}
    for lo, hi in covers:
        adj[lo].add(hi)
    leq = [[False] * n for _ in range(n)]
    for start in range(n):
        stack, seen = [start], {start}
        while stack:
            u = stack.pop()
            leq[start][u] = True
            for v in adj[u] - seen:
                seen.add(v)
                stack.append(v)
    return leq


def least_upper_bound(leq, x, y):
    """Least element of the upper-bound set, or None when it has no least."""
    n = len(leq)
    ubs = [u for u in range(n) if leq[x][u] and leq[y][u]]
    least = [u for u in ubs if all(leq[u][v] for v in ubs)]
    return least[0] if len(least) == 1 else None


def greatest_lower_bound(leq, x, y):
    n = len(leq)
    lbs = [u for u in range(n) if leq[u][x] and leq[u][y]]
    greatest = [u for u in lbs if all(leq[v][u] for v in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def om_violation(leq, join2, meet2, comp):
    """First pair x <= y with y != x v (y ^ x'), scanning in index order."""
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if leq[x][y] and join2(x, meet2(y, comp[x])) != y:
                return x, y
    return None


def tense_P(join2, bottom, rel, q):
    """P(q)(t) folds q over the points strictly related into t, plus none."""
    out = []
    for t in range(len(q)):
        acc = bottom
        for s in range(len(q)):
            if (s, t) in rel:
                acc = join2(acc, q[s])
        out.append(acc)
    return tuple(out)


def tense_F(join2, bottom, rel, q):
    out = []
    for t in range(len(q)):
        acc = bottom
        for s in range(len(q)):
            if (t, s) in rel:
                acc = join2(acc, q[s])
        out.append(acc)
    return tuple(out)


def tense_H(meet2, top, rel, q):
    out = []
    for t in range(len(q)):
        acc = top
        for s in range(len(q)):
            if (s, t) in rel:
                acc = meet2(acc, q[s])
        out.append(acc)
    return tuple(out)


def tense_G(meet2, top, rel, q):
    out = []
    for t in range(len(q)):
        acc = top
        for s in range(len(q)):
            if (t, s) in rel:
                acc = meet2(acc, q[s])
        out.append(acc)
    return tuple(out)


def sasaki_and(join2, meet2, comp, x, y):
    return meet2(join2(x, comp[y]), y)


def sasaki_imp(join2, meet2, comp, x, y):
    return join2(meet2(y, x), comp[x])


def all_props(n_elements, n_points):
    """Every proposition as a tuple of element indices (product order)."""
    return list(product(range(n_elements), repeat=n_points))


def _induced(props, first, second, n_points):
    """(kept pairs, {excluded pair: (index, side)}): a pair is kept when both
    of its inequalities hold for every q in props; an excluded pair records
    the first q (its index in props) where one fails, side 0 when the first
    inequality does."""
    pairs, violations = set(), {}
    for s in range(n_points):
        for t in range(n_points):
            for index, q in enumerate(props):
                if not first(q, s, t):
                    violations[(s, t)] = (index, 0)
                    break
                if not second(q, s, t):
                    violations[(s, t)] = (index, 1)
                    break
            else:
                pairs.add((s, t))
    return pairs, violations


def induced_R1(props, leq, apply_P, apply_F, n_points):
    """Pairs (s, t) with q(s) <= P(q)(t) and q(t) <= F(q)(s) for every q,
    and the first violation of each other pair (see _induced)."""
    return _induced(props, lambda q, s, t: leq[q[s]][apply_P(q)[t]],
                    lambda q, s, t: leq[q[t]][apply_F(q)[s]], n_points)


def induced_R2(props, leq, apply_H, apply_G, n_points):
    """Pairs (s, t) with H(q)(t) <= q(s) and G(q)(s) <= q(t) for every q,
    and the first violation of each other pair (see _induced)."""
    return _induced(props, lambda q, s, t: leq[apply_H(q)[t]][q[s]],
                    lambda q, s, t: leq[apply_G(q)[s]][q[t]], n_points)


def boolean_cube_covers(k):
    """Element names and cover pairs for the lattice of subsets of a k-set.

    Element i stands for the set of bit positions in i; covers connect
    masks differing in exactly one bit. Names are 'm<mask>' except the
    bounds, so the text format round-trips through the parser.
    """
    names = []
    for mask in range(1 << k):
        if mask == 0:
            names.append("0")
        elif mask == (1 << k) - 1:
            names.append("1")
        else:
            names.append(f"m{mask}")
    covers = []
    for mask in range(1 << k):
        for bit in range(k):
            if not mask & (1 << bit):
                covers.append((names[mask], names[mask | (1 << bit)]))
    ortho = [(names[mask], names[((1 << k) - 1) ^ mask])
             for mask in range(1 << k)]
    return names, covers, ortho


def subset_leq(mask_a, mask_b):
    return (mask_a & mask_b) == mask_a
