"""Brute-force ground truth: raw generator-image enumeration over a
multiplication table, and lifts checked by evaluating the relators in the
extension's own table.  It shares with the library only the tables,
``FiniteGroupTable.closure`` and ``eval_word_in_table``, and none of the
engine's machinery: no Fox calculus, no lifting systems, no solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import eval_word_in_table


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
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        gens = [(idx // N ** (n - 1 - g)) % N for g in range(n)]
        mask = np.ones(len(idx), dtype=bool)
        for rel in P.relators:
            mask &= eval_word_in_table(table, gens, rel) == 0
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


def brute_epi(P, table, budget=None):
    budget = budget if budget is not None else OracleBudget()
    N = table.n
    try:
        count = 0
        for hits in _hom_hits(P, table, budget):
            for t in hits.tolist():
                budget.charge(N * P.n)
                if len(table.closure(_images(t, N, P.n))) == N:
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
# Lift checking in the extension's table, whose element e * |base| + b is
# the pair (kernel element numbered e, base element b).


def brute_lift_check(P, rho_images, layer, avecs, budget=None):
    """Whether generator values a_i in E assemble with rho into a
    homomorphism to the extension: every relator must evaluate to the
    identity of ``layer.group`` at the elements num(a_i) * |base| + rho_i,
    where num(a) = sum a_k q^k."""
    budget = budget if budget is not None else OracleBudget()
    q, nB = layer.q, len(layer.base)
    lifted = [sum(x % q * q**k for k, x in enumerate(a)) * nB + b
              for a, b in zip(avecs, rho_images)]
    for rel in P.relators:
        budget.charge(len(rel))
        if eval_word_in_table(layer.group, lifted, rel) != 0:
            return False
    return True
