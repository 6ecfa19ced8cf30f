"""Subgroup lattices and Moebius functions (inductive, Kratzer-Thevenaz,
Weisner)."""

from __future__ import annotations

from .groups import CapExceeded, GroupSpecError, generating_sequence
from .presentations import factorize


class SubgroupLattice:
    """All subgroups of a finite group, as bit masks of element indices."""

    def __init__(self, table, subgroups):
        self.table = table
        subs = sorted(subgroups, key=lambda s: (len(s), tuple(sorted(s))))
        self.subgroups = [frozenset(s) for s in subs]
        self.masks = [_mask(s) for s in self.subgroups]
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.orders = [len(s) for s in self.subgroups]
        self._joins = {}
        self._generators = {}

    def __len__(self):
        return len(self.subgroups)

    @property
    def full_index(self):
        return len(self.subgroups) - 1

    def meet(self, i, j):
        return self.index[self.masks[i] & self.masks[j]]

    def join(self, i, j):
        """The index of the subgroup generated by subgroups i and j: the
        closure of their generators, kept per pair."""
        key = (min(i, j), max(i, j))
        got = self._joins.get(key)
        if got is None:
            got = self.index[_mask(self.table.closure(self.generators_of(i) + self.generators_of(j)))]
            self._joins[key] = got
        return got

    def supersets(self, i):
        mi = self.masks[i]
        return [j for j, mj in enumerate(self.masks) if mi & ~mj == 0]

    def generators_of(self, i):
        """A generating sequence of subgroup i (``generating_sequence`` of
        its subtable), kept per subgroup."""
        gens = self._generators.get(i)
        if gens is None:
            sub, elems = self.table.subtable(self.subgroups[i])
            gens = self._generators[i] = [elems[g] for g in generating_sequence(sub)]
        return list(gens)


def _mask(elems):
    m = 0
    for x in elems:
        m |= 1 << x
    return m


def all_subgroups(table, cap=200):
    """The full subgroup lattice by closure generation: cyclic seeds, then
    rounds of joins with them.  A subgroup generated by x_1, ..., x_r is
    the join of <x_1, ..., x_{r-1}> with the cyclic <x_r>, so each round
    joins only the subgroups new in the round before with the seeds.  Each
    subgroup keeps the generators it was found from, and a join is the
    closure of those and the seed's generator."""
    if table.n > cap:
        raise CapExceeded("group order %d exceeds lattice cap %d" % (table.n, cap))
    seeds = {}
    for x in range(1, table.n):
        seeds.setdefault(table.closure([x]), x)
    gens = {frozenset({0}): ()}
    fresh = {c: (x,) for c, x in seeds.items()}
    while fresh:
        gens.update(fresh)
        new = {}
        for a, ga in fresh.items():
            for c, x in seeds.items():
                if not (c <= a or a <= c):
                    both = ga + (x,)
                    j = table.closure(both)
                    if j not in gens:
                        new.setdefault(j, both)
        fresh = new
    return SubgroupLattice(table, gens)


def moebius(lattice):
    """The Moebius function mu(H) = mu(H, G) by the inductive definition,
    top down."""
    n = len(lattice)
    mu = [0] * n
    order = sorted(range(n), key=lambda i: -lattice.orders[i])
    mu[lattice.full_index] = 1
    for i in order:
        if i == lattice.full_index:
            continue
        mu[i] = -sum(mu[j] for j in lattice.supersets(i) if j != i)
    return mu


def moebius_kt(lattice, chain):
    """Kratzer-Thevenaz: along a chief chain Gamma_0 > ... > 1, set
    H_i = Gamma_i H, keep distinct terms H = H_r < ... < H_0 = Gamma, and let
    h_i count the K in the lattice with K meet H_i = H_{i+1} and
    K join H_i = Gamma; then mu(H) = (-1)^r h_1 ... h_{r-1}."""
    table = lattice.table
    full = lattice.full_index
    out = [0] * len(lattice)
    for idx, H in enumerate(lattice.subgroups):
        terms = []
        for gamma in chain:
            m = _mask(set(table.mul[sorted(gamma)][:, sorted(H)].ravel().tolist()))
            if m not in lattice.index:
                # Gamma_i H is always a subgroup since Gamma_i is normal
                raise GroupSpecError("product with a chain member is not a subgroup")
            t = lattice.index[m]
            if not terms or terms[-1] != t:
                terms.append(t)
        r = len(terms) - 1
        val = (-1) ** r
        for i in range(1, r):
            hi = terms[i]
            target = terms[i + 1]
            cnt = 0
            for k in range(len(lattice)):
                if lattice.meet(k, hi) == target and lattice.join(k, hi) == full:
                    cnt += 1
            val *= cnt
            if val == 0:
                break
        out[idx] = val
    return out


def moebius_weisner(table, lattice):
    """Weisner's formula for nilpotent groups: mu(H) = 0 unless H is normal
    with quotient a direct sum of elementary abelian groups, in which case
    mu(H) = prod (-1)^{s_i} q_i^{s_i(s_i-1)/2}."""
    if not table.is_nilpotent():
        raise GroupSpecError("Weisner evaluation needs a nilpotent group")
    out = [0] * len(lattice)
    for idx, H in enumerate(lattice.subgroups):
        if not table.is_normal(H):
            continue
        Q, _, _ = table.quotient(H)
        if not Q.is_abelian():
            continue
        rad = 1
        for p in factorize(Q.n):
            rad *= p
        if (rad % Q.orders).any():  # some x^rad is not 1
            continue
        val = 1
        for p, s in factorize(Q.n).items():
            val *= (-1) ** s * p ** (s * (s - 1) // 2)
        out[idx] = val
    return out
