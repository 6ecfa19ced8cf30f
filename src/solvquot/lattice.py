"""Subgroup lattices, Moebius functions (inductive, Kratzer-Thevenaz,
Weisner), and the Hall enumeration identities."""

from __future__ import annotations

from .counting import DEFAULT_FRONTIER_CAP, epi_count, hom_count
from .groups import CapExceeded, GroupSpecError, chief_series, generating_sequence
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
        self._joins = None

    def __len__(self):
        return len(self.subgroups)

    @property
    def full_index(self):
        return len(self.subgroups) - 1

    def meet(self, i, j):
        return self.index[self.masks[i] & self.masks[j]]

    def join(self, i, j):
        if self._joins is None:
            self._joins = {}
        key = (min(i, j), max(i, j))
        got = self._joins.get(key)
        if got is None:
            got = self.index[_mask(self.table.closure(self.subgroups[i] | self.subgroups[j]))]
            self._joins[key] = got
        return got

    def supersets(self, i):
        mi = self.masks[i]
        return [j for j, mj in enumerate(self.masks) if mi & ~mj == 0]

    def generators_of(self, i):
        sub, elems = self.table.subtable(self.subgroups[i])
        return [elems[g] for g in generating_sequence(sub)]


def _mask(elems):
    m = 0
    for x in elems:
        m |= 1 << x
    return m


def all_subgroups(table, cap=200):
    """The full subgroup lattice by closure generation: cyclic seeds, then
    rounds of pairwise joins.  A pair is joined in the round after the later
    of its two subgroups was found, so each round joins only the pairs with
    a subgroup new in the round before."""
    if table.n > cap:
        raise CapExceeded("group order %d exceeds lattice cap %d" % (table.n, cap))
    subs = set()
    fresh = {frozenset({0})} | {table.closure([x]) for x in range(1, table.n)}
    while fresh:
        old = list(subs)
        subs |= fresh
        fresh = list(fresh)
        new = set()
        for i, a in enumerate(fresh):
            for b in old + fresh[i + 1 :]:
                if not (a <= b or b <= a):
                    j = table.closure(a | b)
                    if j not in subs:
                        new.add(j)
        fresh = new
    return SubgroupLattice(table, subs)


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
            prod = set()
            for g in gamma:
                row = table.mul[g]
                prod.update(row[h] for h in H)
            m = _mask(prod)
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
        if any(Q.power(x, rad) != 0 for x in range(Q.n)):
            continue
        val = 1
        for p, s in factorize(Q.n).items():
            val *= (-1) ** s * p ** (s * (s - 1) // 2)
        out[idx] = val
    return out


def eulerian_via_moebius(lattice, mu, n):
    """phi(Gamma, n) = sum mu(H) |H|^n over the subgroup lattice."""
    return sum(m * o**n for m, o in zip(mu, lattice.orders))


def hall_identities(P, table, cap=DEFAULT_FRONTIER_CAP):
    """Check |Hom(G,Gamma)| = sum |Epi(G,H)| and its Moebius inversion
    |Epi(G,Gamma)| = sum mu(H) |Hom(G,H)| against the lifting engine;
    returns the computed numbers."""
    lattice = all_subgroups(table)
    mu = moebius(lattice)
    homs = []
    epis = []
    for sub in lattice.subgroups:
        subtable, _ = table.subtable(sub)
        tower = chief_series(subtable)
        homs.append(hom_count(P, tower, cap=cap))
        epis.append(epi_count(P, tower, cap=cap, with_aut=False).epi)
    hom_total = homs[-1]
    epi_total = epis[-1]
    sum_epi = sum(epis)
    sum_mu_hom = sum(m * h for m, h in zip(mu, homs))
    return {
        "hom": hom_total,
        "epi": epi_total,
        "sum_epi_over_subgroups": sum_epi,
        "moebius_inversion": sum_mu_hom,
        "hom_identity_holds": hom_total == sum_epi,
        "epi_identity_holds": epi_total == sum_mu_hom,
    }
