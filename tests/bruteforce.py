"""Brute-force enumeration oracles for the exact linear algebra layer and
the orbit sweep.

Everything here is deliberately naive: closures, full vector enumeration,
element-order multisets, one act() per generator and point.  The linear
algebra oracles are feasible for ambient rank <= 4 and modulus <= 9, which
is the regime the property tests run in.  The package code must agree with
these oracles; the oracles never import package internals beyond the public
API.
"""

import itertools
from math import gcd

from strata_glue.padic_core import act, enumerate_p1, subgroup_generators


def all_vectors(length, n):
    return list(itertools.product(range(n), repeat=length))


def span_of(rows, n, width=None):
    """Set of all Z/n-linear combinations of the given rows (BFS closure)."""
    if width is None:
        width = len(rows[0]) if rows else 0
    zero = tuple([0] * width)
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % n for a, b in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def brute_left_kernel(rows, n):
    """All x with x * M = 0, M given by rows (x has one entry per row)."""
    if not rows:
        return set(all_vectors(0, n))
    width = len(rows[0])
    out = set()
    for x in all_vectors(len(rows), n):
        img = [0] * width
        for c, r in zip(x, rows):
            for j in range(width):
                img[j] = (img[j] + c * r[j]) % n
        if not any(img):
            out.add(x)
    return out


def coset_space(ambient, relation_rows, n):
    """List of cosets of span(relation_rows) in (Z/n)^ambient, as frozensets."""
    sp = span_of(relation_rows, n) if relation_rows else {tuple([0] * ambient)}
    leftover = set(all_vectors(ambient, n))
    cosets = []
    while leftover:
        v = next(iter(leftover))
        cs = frozenset(tuple((a + b) % n for a, b in zip(v, s)) for s in sp)
        cosets.append(cs)
        leftover -= cs
    return cosets


def element_order_multiset(ambient, relation_rows, n):
    """Multiset of additive element orders in (Z/n)^ambient / span(relations)."""
    sp = span_of(relation_rows, n) if relation_rows else {tuple([0] * ambient)}
    orders = []
    for v in all_vectors(ambient, n):
        k = 1
        w = v
        while w not in sp:
            k += 1
            w = tuple((a + b) % n for a, b in zip(w, v))
        orders.append(k)
    # every coset is counted |span| times
    orders.sort()
    return orders[:: len(sp)] if sp else orders


def orders_of_factor_sum(factors, n):
    """Expected element-order multiset of a direct sum of cyclic groups Z/d."""
    orders = []
    for combo in itertools.product(*[range(d) for d in factors]):
        k = 1
        for d, c in zip(factors, combo):
            if c:
                k = k * (d // gcd(d, c)) // gcd(k, d // gcd(d, c))
        orders.append(k)
    orders.sort()
    return orders


def act_sweep_orbits(spec, m, p):
    """Orbit partition by one act() per generator and point, as orbits()
    computed it for every generator before its residue sweep: all points of
    a level raised by twice the pole depth plus slack, merged at level m."""
    gens = subgroup_generators(spec, p)
    depth = max((g.maxneg() for g in gens), default=0)
    internal = m if depth == 0 else m + 2 * depth + 2
    base = enumerate_p1(p, m)
    block = {x: {x} for x in base}
    for x in enumerate_p1(p, internal):
        for g in gens:
            a, b = block[x.project(m)], block[act(x, g, m)[0]]
            if a is not b:
                a |= b
                for y in b:
                    block[y] = a
    out = {id(b): tuple(sorted(b)) for b in block.values()}
    return sorted(out.values(), key=lambda b: b[0])
