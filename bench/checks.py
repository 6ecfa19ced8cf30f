"""Independent counts that the benchmark compares the library's answers with.

Nothing here imports solvquot: every count is computed from a plain
multiplication table (a list of rows, identity at index 0) or from a closed
formula, so agreement with the lifting engine is evidence, not tautology.
Each ``check_*`` function raises CheckFailed when the count it is given
differs from the independent one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    pass


def expect(label, got, want):
    if got != want:
        raise CheckFailed("%s: library gave %r, independent count is %r" % (label, got, want))


def expect_true(label, cond):
    if not cond:
        raise CheckFailed("%s: property does not hold" % label)


# ---------------------------------------------------------------------------
# Multiplication tables.


class Table:
    """A finite group as numpy arrays: ``mul[a, b]`` and ``inv[a]``."""

    def __init__(self, rows):
        self.mul = np.asarray(rows, dtype=np.int64)
        self.n = self.mul.shape[0]
        if self.mul.shape != (self.n, self.n):
            raise ValueError("multiplication table is not square")
        if not (np.all(self.mul[0] == np.arange(self.n)) and np.all(self.mul[:, 0] == np.arange(self.n))):
            raise ValueError("element 0 is not the identity")
        where = np.argwhere(self.mul == 0)
        inv = np.full(self.n, -1, dtype=np.int64)
        inv[where[:, 0]] = where[:, 1]
        if np.any(inv < 0):
            raise ValueError("some element has no inverse")
        self.inv = inv
        self._subgroups = None
        self._mu = None

    # -- subgroup lattice ---------------------------------------------------

    def _closure(self, gens):
        """Bitmask of the subgroup generated by ``gens``."""
        mul = self.mul
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            row = mul[x]
            for g in gens:
                y = int(row[g])
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        mask = 0
        for x in seen:
            mask |= 1 << x
        return mask

    def subgroups(self):
        """Every subgroup, as a bitmask over the elements.  Each subgroup is
        generated by finitely many cyclic subgroups, so closing the set of
        cyclic subgroups under joins with a cyclic subgroup reaches them all."""
        if self._subgroups is None:
            cyclic = {}
            for g in range(self.n):
                cyclic.setdefault(self._closure([g]), g)
            gens = {mask: (g,) for mask, g in cyclic.items()}
            frontier = list(gens)
            while frontier:
                new = []
                for h in frontier:
                    for c, g in cyclic.items():
                        if c & ~h:
                            j = self._closure(gens[h] + (g,))
                            if j not in gens:
                                gens[j] = gens[h] + (g,)
                                new.append(j)
                frontier = new
            self._subgroups = sorted(gens, key=lambda m: (-bin(m).count("1"), m))
        return self._subgroups

    def moebius_to_top(self):
        """{H: mu(H, G)} over the subgroup lattice, computed top down from
        mu(G, G) = 1 and sum_{H <= K <= G} mu(K, G) = 0 for H < G."""
        if self._mu is None:
            mu = {}
            subs = self.subgroups()  # largest first
            for h in subs:
                if not mu:
                    mu[h] = 1
                    continue
                mu[h] = -sum(v for k, v in mu.items() if k & h == h)
            self._mu = mu
        return self._mu

    @staticmethod
    def elements(mask):
        return np.array([i for i in range(mask.bit_length()) if mask >> i & 1], dtype=np.int64)


def element_orders(table):
    order = np.ones(table.n, dtype=np.int64)
    x = np.arange(table.n)
    while True:
        open_ = x != 0
        if not open_.any():
            return order
        x = np.where(open_, table.mul[x, np.arange(table.n)], 0)
        order += open_


def aut_order(table, chunk=20_000):
    """|Aut(G)| by generator images: fix generators x_1..x_r and a word for
    every element (a breadth-first spanning tree of the Cayley graph); a
    choice of images y_i of matching orders defines phi along the tree, and
    phi is an automorphism exactly when phi(e x_i) = phi(e) y_i for every
    element e and generator i, and only the identity maps to the identity."""
    orders = element_orders(table)
    gens, span = [], 1
    for g in sorted(range(table.n), key=lambda g: (-orders[g], g)):
        if not (span >> g & 1):
            gens.append(g)
            span = table._closure(gens)
            if span == (1 << table.n) - 1:
                break
    tree, seen = [], {0}
    frontier = [0]
    while frontier:
        new = []
        for e in frontier:
            for i, g in enumerate(gens):
                f = int(table.mul[e, g])
                if f not in seen:
                    seen.add(f)
                    tree.append((f, e, i))
                    new.append(f)
        frontier = new
    choices = [np.flatnonzero(orders == orders[g]) for g in gens]
    total = math.prod(len(c) for c in choices)
    count = 0
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(total, lo + chunk))
        ys = []
        for c in reversed(choices):
            ys.append(c[idx % len(c)])
            idx = idx // len(c)
        ys.reverse()
        phi = np.zeros((len(ys[0]), table.n), dtype=np.int64)
        for f, e, i in tree:
            phi[:, f] = table.mul[phi[:, e], ys[i]]
        ok = (phi[:, 1:] != 0).all(axis=1)
        for i, g in enumerate(gens):
            ok &= (phi[:, table.mul[:, g]] == table.mul[phi, ys[i][:, None]]).all(axis=1)
        count += int(ok.sum())
    return count


# ---------------------------------------------------------------------------
# Homomorphism counts.


def hom_free(order, n):
    """|Hom(F_n, H)| = |H|^n."""
    return order**n


def hom_surface2(table, mask=None):
    """|Hom(pi_1 Sigma_2, H)| = sum_g N(g) N(g^-1), with N(g) the number of
    pairs (a, b) in H with [a, b] = g, read off the multiplication table."""
    elems = Table.elements(mask) if mask is not None else np.arange(table.n)
    a = elems[:, None]
    b = elems[None, :]
    mul, inv = table.mul, table.inv
    comm = mul[mul[mul[inv[a], inv[b]], a], b]
    n = np.bincount(comm.ravel(), minlength=table.n)
    return int(np.dot(n, n[inv]))


def hom_brute(relators, n_gens, table, mask=None):
    """|Hom(G, H)| for G = < n_gens generators | relators > by evaluating
    every relator on every tuple of generator images in H.  A relator is a
    sequence of (generator index, +1 or -1)."""
    elems = Table.elements(mask) if mask is not None else np.arange(table.n)
    m = len(elems)
    total = m**n_gens
    idx = np.arange(total, dtype=np.int64)
    images = [elems[(idx // m ** (n_gens - 1 - g)) % m] for g in range(n_gens)]
    inverses = [table.inv[x] for x in images]
    ok = np.ones(total, dtype=bool)
    for rel in relators:
        v = np.zeros(total, dtype=np.int64)
        for g, e in rel:
            v = table.mul[v, images[g] if e == 1 else inverses[g]]
        ok &= v == 0
    return int(ok.sum())


def epi_moebius(table, hom_of):
    """|Epi(G, H)| = sum over subgroups K of mu(K, H) |Hom(G, K)|, where
    ``hom_of(mask)`` gives |Hom(G, K)| for the subgroup with that mask."""
    return sum(mu * hom_of(k) for k, mu in table.moebius_to_top().items() if mu)


# ---------------------------------------------------------------------------
# Symmetric groups and subgroup growth.


def symmetric_rows(k):
    """Multiplication table of S_k on the permutations of range(k) in
    lexicographic order (the identity first); row p, column q holds p after q."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64).reshape(-1, k)
    code = np.zeros(len(perms), dtype=np.int64)
    for col in range(k):
        code = code * k + perms[:, col]
    index = np.full(k**k, -1, dtype=np.int64)
    index[code] = np.arange(len(perms))
    comp = perms[:, perms]  # comp[p, q, x] = perms[p][perms[q][x]]
    ccode = np.zeros(comp.shape[:2], dtype=np.int64)
    for col in range(k):
        ccode = ccode * k + comp[:, :, col]
    return index[ccode]


def cyclic_rows(n):
    """Multiplication table of Z_n."""
    r = np.arange(n)
    return (r[:, None] + r[None, :]) % n


def partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def hook_dimension(shape):
    """Degree of the irreducible character of S_k for a partition, by the
    hook-length formula."""
    k = sum(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(k) // hooks


def hom_surface_symmetric(genus, k):
    """|Hom(pi_1 Sigma_g, S_k)| = k! sum_lambda (k!/f_lambda)^(2g-2)."""
    kf = math.factorial(k)
    return kf * sum((kf // hook_dimension(lam)) ** (2 * genus - 2) for lam in partitions(k))


def subgroup_counts(hk):
    """a_1..a_K from h_k = |Hom(G, S_k)| by M. Hall's recursion
    a_k = h_k/(k-1)! - sum_{l<k} h_{k-l} a_l/(k-l)!."""
    a = []
    for k in range(1, len(hk) + 1):
        val = Fraction(hk[k - 1], math.factorial(k - 1))
        val -= sum(Fraction(hk[k - l - 1] * a[l - 1], math.factorial(k - l)) for l in range(1, k))
        if val.denominator != 1 or val < 0:
            raise CheckFailed("h_1..h_%d give a non-integral or negative a_%d = %s" % (len(hk), k, val))
        a.append(int(val))
    return a


# ---------------------------------------------------------------------------
# Checkers: each compares a library count with the independent one.


def check_hom(label, got, want):
    expect("|Hom| " + label, got, want)


def check_epi(label, got, table, hom_of):
    expect("|Epi| " + label, got, epi_moebius(table, hom_of))


def check_epi_report(label, epi, aut, delta, aut_want, hom=None):
    """One Epi/delta answer: |Aut| against the independent count, |Aut|
    divides |Epi|, delta is the quotient, and Epi <= Hom when Hom is known."""
    expect("|Aut| " + label, aut, aut_want)
    expect_true("|Aut| = %r divides |Epi| = %r for %s" % (aut, epi, label), aut and epi % aut == 0)
    expect("delta " + label, delta, epi // aut)
    if hom is not None:
        expect_true("|Epi| <= |Hom| for " + label, epi <= hom)


def check_growth(label, hk, ak, hk_want=None):
    """h_k against independent values where given (None entries are
    skipped), then a_k against M. Hall's recursion on the checked h_k."""
    if hk_want is not None:
        for k, (got, want) in enumerate(zip(hk, hk_want), start=1):
            if want is not None:
                expect("h_%d %s" % (k, label), got, want)
    expect("a_k %s" % label, list(ak), subgroup_counts(list(hk)))


def check_normal(label, ak, ak_normal):
    """a_k^normal is a non-negative integer, at most a_k, and equal to a_2
    at k = 2 (every index-2 subgroup is normal)."""
    for k, an in enumerate(ak_normal, start=1):
        expect_true("a_%d^normal = %r is a non-negative integer for %s" % (k, an, label),
                    isinstance(an, int) and an >= 0)
        if k <= len(ak):
            expect_true("a_%d^normal <= a_%d for %s" % (k, k, label), an <= ak[k - 1])
    if len(ak) >= 2 and len(ak_normal) >= 2:
        expect("a_2^normal %s" % label, ak_normal[1], ak[1])
