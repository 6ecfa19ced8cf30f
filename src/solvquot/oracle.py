"""Brute-force ground truth: raw generator-image enumeration over a
multiplication table and direct evaluation of lifts in extension pairs.
Deliberately independent of the Fox-calculus machinery."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class OracleBudget:
    max_letter_ops: int = 10**8
    used: int = 0

    def charge(self, n):
        self.used += n
        if self.used > self.max_letter_ops:
            raise BudgetExceeded("oracle budget of %d letter operations exceeded"
                                 % self.max_letter_ops)


@dataclass
class BruteResult:
    count: int | None
    verified: bool
    letter_ops: int

    def __int__(self):
        if not self.verified:
            raise BudgetExceeded("oracle result is unverified")
        return self.count


_CHUNK = 1 << 18  # image tuples per chunk of the oracle's walk


def _hom_hits(P, table, budget):
    """The image tuples on which every relator evaluates to the identity, as
    indices in mixed-radix order (first generator most significant), one
    array per chunk of ``_CHUNK`` tuples.  The whole walk is charged to the
    budget before the first chunk is built: n + 1 entries per tuple (the
    index and one per generator) and one per relator letter.  Only one
    chunk's arrays exist at a time, so memory stays bounded however large
    the budget is."""
    N, n = table.n, P.n
    total = N**n
    budget.charge((n + 1) * total)
    for rel in P.relators:
        budget.charge(len(rel) * total)
    arr = table.as_array()
    inv = np.array(table.inv, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        gens = [(idx // N ** (n - 1 - g)) % N for g in range(n)]
        mask = np.ones(len(idx), dtype=bool)
        for rel in P.relators:
            v = np.zeros(len(idx), dtype=np.int64)
            for g, e in rel:
                v = arr[v, gens[g] if e == 1 else inv[gens[g]]]
            mask &= v == 0
        yield idx[mask]


def _images(t, N, n):
    return tuple((t // N ** (n - 1 - g)) % N for g in range(n))


def brute_hom(P, table, budget=None):
    budget = budget if budget is not None else OracleBudget()
    try:
        count = sum(len(hits) for hits in _hom_hits(P, table, budget))
    except BudgetExceeded:
        return BruteResult(None, False, budget.used)
    return BruteResult(count, True, budget.used)


def _closure_size(table, images):
    mul = table.mul
    seen = {0}
    frontier = [0]
    gl = sorted(set(images))
    while frontier:
        new = []
        for x in frontier:
            row = mul[x]
            for g in gl:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen)


def brute_epi(P, table, budget=None):
    budget = budget if budget is not None else OracleBudget()
    N = table.n
    try:
        count = 0
        for hits in _hom_hits(P, table, budget):
            for t in hits.tolist():
                budget.charge(N * P.n)
                if _closure_size(table, _images(t, N, P.n)) == N:
                    count += 1
    except BudgetExceeded:
        return BruteResult(None, False, budget.used)
    return BruteResult(count, True, budget.used)


def brute_hom_images(P, table, budget=None):
    """The image tuples of all homomorphisms (for oracle-side enumeration of
    maps, not just counts)."""
    budget = budget if budget is not None else OracleBudget()
    return [_images(t, table.n, P.n)
            for hits in _hom_hits(P, table, budget) for t in hits.tolist()]


# ---------------------------------------------------------------------------
# Direct lift checking in an extension pair (vector, base element), using the
# layer's sigma/chi tables but its own arithmetic.


def _pair_mul(layer, x, y):
    (a1, b1), (a2, b2) = x, y
    sig, cv = layer.sigma[b1].tolist(), layer.chi[b1, b2].tolist()
    vec = tuple((u + sum(map(operator.mul, row, a2)) + c) % layer.q
                for u, row, c in zip(a1, sig, cv))
    return vec, layer.base.mul[b1][b2]


def _pair_inv(layer, x):
    a, b = x
    binv = layer.base.inv[b]
    sig, cv = layer.sigma[binv].tolist(), layer.chi[binv, b].tolist()
    vec = tuple(-(sum(map(operator.mul, row, a)) + c) % layer.q for row, c in zip(sig, cv))
    return vec, binv


def brute_lift_check(P, rho_images, layer, avecs, budget=None):
    """Whether generator values a_i in E assemble with rho into a
    homomorphism to the extension: every relator, multiplied out pair by
    pair, must come out to (0, identity)."""
    budget = budget if budget is not None else OracleBudget()
    zero = (0,) * layer.s
    lifted = [(tuple(a), b) for a, b in zip(avecs, rho_images)]
    for rel in P.relators:
        budget.charge(len(rel))
        acc = (zero, 0)
        for g, e in rel:
            letter = lifted[g] if e == 1 else _pair_inv(layer, lifted[g])
            acc = _pair_mul(layer, acc, letter)
        if acc[0] != zero or acc[1] != 0:
            return False
    return True
