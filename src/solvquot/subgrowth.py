"""Counting finite-index subgroups: homomorphisms to symmetric groups, the
M. Hall recursion, normal-subgroup counts through an order-k catalog, and
closed forms for abelian Hall invariants."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .counting import CountError, delta_s4, table1_delta
from .groups import CapExceeded
from .presentations import abelian_invariants, factorize


# ---------------------------------------------------------------------------
# S_k as an int8 array of the permutations of range(k), in
# itertools.permutations (lexicographic) order; p*q applies q first, so a
# batch V times a fixed p is V[:, p] and times a batch X (one row per
# candidate) is np.take_along_axis(V, X, 1), done here as one flat gather,
# V.ravel()[X + row offsets], which skips take_along_axis's per-call
# overhead on the search's small batches and is faster on large ones.

_BLOCK_TUPLES = 30_000_000  # most assignments a block measure enumerates
_CHUNK = 1 << 18  # assignments per array pass of a block measure
# Most (row, candidate) pairs the search tests in one array pass.  At k = 7
# (5040 candidates) a chunk is one row, on the fixed-permutation path: 13
# rows at a time measured twice as slow as one.
_SIBLINGS = 1 << 13
# The process pool starts when the search's first pruning depth tests at
# least this many candidate images (classes times (k!)^depth); below it the
# pool measured slower than one process.
_POOL_MIN_TESTS = 1_000_000


class _Symmetric:
    """The permutations of range(k) and their inverses, their lexicographic
    codes (ascending, so searchsorted ranks a batch), and the conjugacy
    classes, numbered in the order the permutations first meet them."""

    def __init__(self, k):
        perms = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
        self.k = k
        self.perms = perms
        self.inv = np.argsort(perms, axis=1).astype(np.int8)
        self.codes = self.code(perms)
        self.offsets = _row_offsets(len(perms), k)
        # the fixed-point counts of p, p^2, ..., p^k determine the cycle type
        power = perms
        fixed = []
        for _ in range(k):
            fixed.append((power == perms[0]).sum(axis=1))
            power = np.take_along_axis(power, perms, 1)
        _, first, class_of, sizes = np.unique(
            np.stack(fixed, axis=1), axis=0,
            return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        self.class_of = renumber[class_of.reshape(-1)]
        self.reps = first[order]
        self.sizes = sizes[order]
        self._orbits = {}

    def code(self, V):
        c = V[:, 0].astype(np.int64)
        for col in range(1, self.k):
            c = c * self.k + V[:, col]
        return c

    def rank(self, V):
        return np.searchsorted(self.codes, self.code(V))

    def centraliser_orbits(self, r):
        """The orbits of the centraliser C(p) of the permutation p = perms[r]
        acting on S_k by conjugation: the least index in each orbit,
        ascending, and the orbit sizes.  C(p) is generated by the rotation
        of each cycle of p and the swaps of consecutive cycles of equal
        length; orbit labels fall to their least member under those maps
        and pointer jumping.  For the identity these are the classes."""
        if r not in self._orbits:
            gens = _centraliser_gens(self.perms[r])
            maps = [self.rank(c[self.perms[:, np.argsort(c)]]) for c in gens]
            label = np.arange(len(self.perms))
            while True:
                old = label
                for phi in maps:
                    label = np.minimum(label, label[phi])
                label = label[label]
                if (label == old).all():
                    break
            sizes = np.bincount(label, minlength=len(label))
            reps = np.flatnonzero(sizes)
            self._orbits[r] = reps, sizes[reps]
        return self._orbits[r]


def _centraliser_gens(p):
    """Generators of the centraliser of the permutation p: each cycle
    rotated on its own, and each cycle swapped, point for point, with the
    next cycle of the same length."""
    k = len(p)
    seen = set()
    cycles = []
    for start in range(k):
        if start in seen:
            continue
        cyc = [start]
        while p[cyc[-1]] != start:
            cyc.append(int(p[cyc[-1]]))
        seen.update(cyc)
        cycles.append(cyc)
    gens = []
    for cyc in cycles:
        if len(cyc) > 1:
            g = np.arange(k, dtype=p.dtype)
            g[cyc] = p[cyc]
            gens.append(g)
    by_length = {}
    for cyc in cycles:
        by_length.setdefault(len(cyc), []).append(cyc)
    for same in by_length.values():
        for a, b in zip(same, same[1:]):
            g = np.arange(k, dtype=p.dtype)
            g[a], g[b] = b, a
            gens.append(g)
    return gens


def _row_offsets(rows, k):
    return np.arange(rows, dtype=np.int32)[:, None] * k


def _times(V, X, offsets):
    """Row-wise products V*X of two batches, offsets[i] = i*k."""
    return V.ravel()[X + offsets[:len(X)]]


@functools.cache
def _symmetric(k):
    return _Symmetric(k)


def _relator_blocks(rel):
    """Minimal consecutive blocks with pairwise disjoint generator supports,
    of the cyclic rotation of rel (a conjugate, so the same group) whose
    largest block support is smallest; ties keep the given rotation.  The
    rotation that starts at boundary c splits at exactly the boundaries
    lying, for every generator, in the same gap between cyclically
    consecutive occurrences as c, so boundaries are grouped by those gaps."""
    total = {}
    for g, _ in rel:
        total[g] = total.get(g, 0) + 1
    seen = dict.fromkeys(total, 0)
    groups = {}
    for b, (g, _) in enumerate(rel):
        groups.setdefault(tuple(seen[h] % total[h] for h in total), []).append(b)
        seen[g] += 1
    best, largest = [(tuple(rel), tuple(sorted(total)))], len(total)
    for cuts in groups.values():
        if len(cuts) < 2:
            continue
        arcs = [rel[a:b] for a, b in zip(cuts, cuts[1:])]
        arcs.append(rel[cuts[-1]:] + rel[:cuts[0]])
        blocks = [(tuple(arc), tuple(sorted({g for g, _ in arc}))) for arc in arcs]
        size = max(len(sup) for _, sup in blocks)
        if size < largest:
            best, largest = blocks, size
    return best


def _block_class_measure(word, m, S):
    """Counting measure of a block word in generators 0..m-1 as a class
    function: entry c is the number of assignments whose value is any FIXED
    element of class c.  Conjugating every generator conjugates the value,
    so generator 0 runs over the class representatives, weighted by class
    size, and the others over all of S_k: len(reps) * (k!)^(m-1)
    assignments, _CHUNK at a time, whose value classes are counted per
    representative."""
    N = len(S.perms)
    nreps, ncl = len(S.reps), len(S.sizes)
    total = nreps * N ** (m - 1)
    pairs = np.zeros(ncl * nreps, dtype=np.int64)
    offsets = _row_offsets(min(_CHUNK, total), S.k)
    for start in range(0, total, _CHUNK):
        rest = np.arange(start, min(start + _CHUNK, total))
        images = []
        for _ in range(m - 1):
            rest, digit = np.divmod(rest, N)
            images.append(digit)
        slot = rest
        images.insert(0, S.reps[slot])
        V = None
        for g, e in word:
            Y = np.take(S.perms if e == 1 else S.inv, images[g], axis=0)
            V = Y if V is None else _times(V, Y, offsets)
        pairs += np.bincount(S.class_of[S.rank(V)] * nreps + slot, minlength=len(pairs))
    counts = pairs.reshape(ncl, nreps) @ S.sizes.astype(np.int64)
    measure = []
    for c, size in zip(counts.tolist(), S.sizes.tolist()):
        if c % size:
            raise ArithmeticError("block measure is not a class function")
        measure.append(c // size)
    return measure


def _convolve_class(fa, fb, S):
    """(fa * fb)(x) = sum_a fa(a) fb(a^-1 x), as class functions: one array
    pass over every a per class representative x."""
    ncl = len(S.reps)
    out = []
    for rep in S.reps:
        pairs = np.bincount(S.class_of * ncl + S.class_of[S.rank(S.inv[:, S.perms[rep]])],
                            minlength=ncl * ncl)
        out.append(sum(c * fa[i // ncl] * fb[i % ncl]
                       for i, c in enumerate(pairs.tolist()) if c))
    return out


def _block_count(blocks, n, S):
    """|Hom| of a one-relator group from the class measures of its blocks,
    each distinct block word (up to renaming its generators) measured once."""
    measures = {}
    acc = None
    used = set()
    for word, support in blocks:
        used.update(support)
        local = {g: i for i, g in enumerate(dict.fromkeys(g for g, _ in word))}
        key = tuple((local[g], e) for g, e in word)
        if key not in measures:
            measures[key] = _block_class_measure(key, len(local), S)
        acc = measures[key] if acc is None else _convolve_class(acc, measures[key], S)
    return acc[S.class_of[0]] * len(S.perms) ** (n - len(used))


def _segments(rel, g):
    """rel as a list of the exponents of g's letters and, between them, the
    maximal runs of the other generators' letters."""
    segs = []
    for h, e in rel:
        if h == g:
            segs.append(e)
        elif segs and isinstance(segs[-1], list):
            segs[-1].append((h, e))
        else:
            segs.append([(h, e)])
    return segs


def _relator_values(segs, assigned, S, X, Xinv):
    """The value of a relator, given as _segments, for each candidate image
    in the rows of X (inverses in Xinv) of its one unassigned generator;
    assigned maps each other generator to its (image, inverse) and each run
    of their letters is folded into one fixed permutation first."""
    V = None
    for seg in segs:
        if isinstance(seg, int):
            Y = X if seg == 1 else Xinv
            if V is None:
                V = Y
            elif V.ndim == 1:
                V = V[Y]
            else:
                V = _times(V, Y, S.offsets)
            continue
        run = None
        for h, e in seg:
            p = assigned[h][e < 0]
            run = p if run is None else run[p]
        V = run if V is None else V[:, run]
    return V


def _search_order(P):
    """The generators, most used first, and per depth the relators whose
    last generator in that order is assigned there, as _segments."""
    n = P.n
    occurrences = [0] * n
    for rel in P.relators:
        for g, _ in rel:
            occurrences[g] += 1
    order = sorted(range(n), key=lambda g: (-occurrences[g], g))
    pos_of = {g: i for i, g in enumerate(order)}
    ready_at = [[] for _ in range(n)]
    for rel in P.relators:
        depth = max(pos_of[g] for g, _ in rel)
        ready_at[depth].append(_segments(rel, order[depth]))
    return order, ready_at


def _search(P, S, reps, sizes):
    """Search over generator images in _search_order, keeping the nodes of
    a depth as weighted rows of the images assigned so far.  The first
    generator runs over the class representatives reps (weighted by sizes)
    and, with three or more generators, the second over the orbits of the
    first image's centraliser acting by conjugation (weighted by orbit size):
    conjugating by an element of C(r) fixes r and carries the completions
    of one second image onto those of its conjugate.  Deeper depths test
    chunks of rows against all k! images of their generator at once
    against the relators that become ready there; the last depth adds up
    the surviving weights."""
    n = P.n
    order, ready_at = _search_order(P)
    pos = {g: d for d, g in enumerate(order)}
    N = len(S.perms)
    everything = np.arange(N)
    ident = S.perms[0]
    step = max(1, _SIBLINGS // N)
    offsets = _row_offsets(step, S.k)
    total = 0

    def one_row(depth, row):
        """The surviving candidates, and their weights or None, for the
        generator at depth given one row of assigned images."""
        if depth == 0:
            cand, w = reps, sizes
        elif depth == 1 and n >= 3:
            cand, w = S.centraliser_orbits(int(row[0]))
        else:
            cand, w = everything, None
        X, Xinv = (S.perms, S.inv) if w is None else (S.perms[cand], S.inv[cand])
        assigned = {order[d]: (S.perms[i], S.inv[i]) for d, i in enumerate(row.tolist())}
        for segs in ready_at[depth]:
            keep = (_relator_values(segs, assigned, S, X, Xinv) == ident).all(axis=1)
            cand, X, Xinv = cand[keep], X[keep], Xinv[keep]
            w = None if w is None else w[keep]
        return cand, w

    def siblings(depth, rows):
        """The surviving (row, candidate) pairs of a chunk of rows, each
        tested against all k! images of the generator at depth."""
        r_of = np.repeat(np.arange(len(rows)), N)
        cand = np.tile(everything, len(rows))
        for segs in ready_at[depth]:
            V = _chunk_values(segs, rows, pos, S, r_of, cand, offsets)
            keep = (V == ident).all(axis=1)
            r_of, cand = r_of[keep], cand[keep]
        return r_of, cand

    def expand(depth, rows, weights):
        nonlocal total
        per_row = depth == 0 or (depth == 1 and n >= 3)
        width = 1 if per_row else step
        for lo in range(0, len(rows), width):
            chunk, w = rows[lo:lo + width], weights[lo:lo + width]
            if len(chunk) == 1:
                cand, cw = one_row(depth, chunk[0])
                r_of = np.zeros(len(cand), dtype=np.intp)
                cw = w[r_of] if cw is None else w[0] * cw
            else:
                r_of, cand = siblings(depth, chunk)
                cw = w[r_of]
            if depth == n - 1:
                total += int(cw.sum())
            elif len(cand):
                expand(depth + 1, np.column_stack([chunk[r_of], cand]), cw)

    expand(0, np.zeros((1, 0), dtype=np.intp), np.ones(1, dtype=np.int64))
    return total


def _chunk_values(segs, rows, pos, S, r_of, cand, offsets):
    """The value of a relator, given as _segments, at each (row, candidate)
    pair: rows[r_of] are the images assigned so far (column pos[h] for
    generator h) and cand the image index of its one unassigned generator.
    Each run of assigned letters is folded once per row; the word is then
    applied right to left, each letter a lookup in its small table (the
    k! images, or the chunk's folded runs) at the pair's row of it."""
    k = S.k
    V = None
    for seg in reversed(segs):
        if isinstance(seg, int):
            table, at = (S.perms if seg == 1 else S.inv), cand
        else:
            table = None
            for h, e in seg:
                p = (S.perms if e == 1 else S.inv)[rows[:, pos[h]]]
                table = p if table is None else _times(table, p, offsets)
            at = r_of
        if V is None:
            V = table[at]
        else:
            V = table.ravel()[(at * k)[:, None] + V]
    return V


def hom_count_symmetric(P, k, cap=8, threads=1, _class_filter=None):
    """|Hom(G, S_k)| by exhaustive generator-image search with conjugacy
    reduction of the first two generators, incremental relator pruning over
    whole arrays of candidate images, and a convolution shortcut for
    one-relator words that factor into blocks with disjoint supports."""
    if k > cap:
        raise CapExceeded("k = %d exceeds the symmetric-group cap %d" % (k, cap))
    if k == 0:
        return 1
    n = P.n
    if not P.relators:
        return math.factorial(k) ** n
    if k == 1:
        return 1
    S = _symmetric(k)

    if len(P.relators) == 1:
        blocks = _relator_blocks(P.relators[0])
        largest = max(len(sup) for _, sup in blocks)
        if len(blocks) >= 2 and len(S.reps) * math.factorial(k) ** (largest - 1) <= _BLOCK_TUPLES:
            return _block_count(blocks, n, S)

    if _class_filter is not None:
        return _search(P, S, S.reps[_class_filter], S.sizes[_class_filter])
    if threads > 1 and n >= 2:
        first = next(d for d, rels in enumerate(_search_order(P)[1]) if rels)
        if len(S.reps) * len(S.perms) ** first >= _POOL_MIN_TESTS:
            return _parallel_dfs(P, k, cap, threads, len(S.reps))
    return _search(P, S, S.reps, S.sizes)


def _partition_worker(payload):
    from .presentations import Presentation

    gens, rels, k, cap, chunk = payload
    P = Presentation(gens, rels)
    return hom_count_symmetric(P, k, cap=cap, _class_filter=chunk)


def _parallel_dfs(P, k, cap, threads, n_classes):
    """Partition the first generator's conjugacy classes over a process pool;
    partial counts are summed in submission order, so the result does not
    depend on the worker count."""
    import multiprocessing

    chunks = [list(range(i, n_classes, threads)) for i in range(threads)]
    chunks = [c for c in chunks if c]
    payloads = [(P.generators, P.relators, k, cap, c) for c in chunks]
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=len(chunks)) as pool:
            parts = pool.map(_partition_worker, payloads)
    except (OSError, ValueError):
        parts = [_partition_worker(p) for p in payloads]
    return sum(parts)


def ak_from_homcounts(hk):
    """The subgroup-count prefix determined by h_1..h_K."""
    ak = []
    for k in range(1, len(hk) + 1):
        val = Fraction(hk[k - 1], math.factorial(k - 1))
        for l in range(1, k):
            val -= Fraction(hk[k - l - 1] * ak[l - 1], math.factorial(k - l))
        if val.denominator != 1:
            raise CountError("index-%d subgroup count is not an integer" % k)
        ak.append(int(val))
    return ak


# ---------------------------------------------------------------------------
# M. Hall's recursion.


@dataclass
class GrowthReport:
    kmax: int
    hk: list
    tk: list
    ak: list
    ak_normal: list = field(default_factory=list)

    def to_json_dict(self):
        out = {
            "kmax": self.kmax,
            "h": self.hk,
            "t": self.tk,
            "a": self.ak,
        }
        if self.ak_normal:
            out["a_normal"] = self.ak_normal
        return out


def ak_sequence(P, kmax, cap=8, threads=1):
    """Numbers of index-k subgroups for k <= kmax via the recursion
    a_k = h_k/(k-1)! - sum_{l<k} h_{k-l} a_l / (k-l)!.  Raises CapExceeded
    before any h_k is computed if kmax exceeds ``cap``."""
    if kmax > cap:
        raise CapExceeded("k = %d exceeds the symmetric-group cap %d" % (kmax, cap))
    hk = [hom_count_symmetric(P, k, cap=cap, threads=threads)
          for k in range(1, kmax + 1)]
    ak = ak_from_homcounts(hk)
    tk = [math.factorial(k - 1) * a for k, a in zip(range(1, kmax + 1), ak)]
    return GrowthReport(kmax, hk, tk, ak)


# ---------------------------------------------------------------------------
# Closed forms for abelian Hall invariants.  Exponents of p in |Hom| are
# truncated at the target exponent, so the formulas stay valid for sources
# with large torsion.


def delta_abelian_closed(inv, shape):
    """shape is ("cyclic", p, s), ("elementary", p, s) or ("mixed", p, s)
    for Z_{p^s}, Z_p^s and Z_p + Z_{p^s} respectively."""
    kind, p, s = shape
    n = inv.rank
    if kind == "cyclic":
        e1 = inv.hom_exponent(p, s)
        e0 = inv.hom_exponent(p, s - 1)
        num = p ** (s * n + e1) - p ** ((s - 1) * n + e0)
        return _exact(num, p**s - p ** (s - 1))
    if kind == "elementary":
        b = inv.beta(p)
        out = Fraction(1)
        for i in range(s):
            out *= Fraction(p ** (n + b) - p**i, p**s - p**i)
        if out.denominator != 1:
            raise CountError("elementary-shape count is not an integer")
        return int(out)
    if kind == "mixed":
        if s < 2:
            raise ValueError("mixed shape needs s >= 2")
        e1 = inv.hom_exponent(p, s)
        e0 = inv.hom_exponent(p, s - 1)
        b = inv.beta(p)
        num = (p ** (s * n + e1) - p ** ((s - 1) * n + e0)) * (p ** (n + b) - p)
        return _exact(num, p ** (s + 1) * (p - 1) ** 2)
    raise ValueError("unknown abelian shape %r" % (shape,))


def _exact(num, den):
    if num % den:
        raise CountError("%d is not divisible by %d" % (num, den))
    return num // den


def _abelian_shapes(order):
    """All abelian groups of the given order as lists of per-prime shapes;
    supports p-parts up to p^3 (orders up to 15 only need that)."""
    per_prime = []
    for p, e in sorted(factorize(order).items()):
        if e == 1:
            opts = [("cyclic", p, 1)]
        elif e == 2:
            opts = [("cyclic", p, 2), ("elementary", p, 2)]
        elif e == 3:
            opts = [("cyclic", p, 3), ("mixed", p, 2), ("elementary", p, 3)]
        else:
            raise ValueError("p-part exponent %d not supported" % e)
        per_prime.append(opts)
    return [list(combo) for combo in itertools.product(*per_prime)]


_NONABELIAN_BY_ORDER = {
    6: ["S3"],
    8: ["D8", "Q8"],
    10: ["D10"],
    12: ["D12", "Dstar12", "A4"],
    14: ["D14"],
}


def delta_abelian(P, shapes, inv=None):
    inv = inv if inv is not None else abelian_invariants(P)
    out = 1
    for shape in shapes:
        out *= delta_abelian_closed(inv, shape)
    return out


def ak_normal(P, k):
    """Number of index-k normal subgroups, as the sum of Hall invariants over
    all isomorphism types of groups of order k (k <= 15)."""
    if k > 15:
        raise CapExceeded("normal subgroup counts are tabulated for k <= 15 only")
    if k == 1:
        return 1
    inv = abelian_invariants(P)
    total = 0
    for shapes in _abelian_shapes(k):
        total += delta_abelian(P, shapes, inv=inv)
    for name in _NONABELIAN_BY_ORDER.get(k, ()):
        total += table1_delta(P, name)
    return total


def low_index_via_deltas(P):
    """(a_2, a_3, a_4) from Hall invariants:
    a_2 = d(Z_2), a_3 = d(Z_3) + 3 d(S_3), and
    a_4 = d(Z_2)(1-d(Z_2))/2 + d(Z_4) + 4 d(Z_2^2) + 4 d(D_8) + 4 d(A_4)
          + 4 d(S_4)."""
    inv = abelian_invariants(P)
    d_z2 = delta_abelian_closed(inv, ("cyclic", 2, 1))
    d_z3 = delta_abelian_closed(inv, ("cyclic", 3, 1))
    d_z4 = delta_abelian_closed(inv, ("cyclic", 2, 2))
    d_z22 = delta_abelian_closed(inv, ("elementary", 2, 2))
    d_s3 = table1_delta(P, "S3")
    d_d8 = table1_delta(P, "D8")
    d_a4 = table1_delta(P, "A4")
    d_s4 = delta_s4(P)
    a2 = d_z2
    a3 = d_z3 + 3 * d_s3
    a4_twice = d_z2 * (1 - d_z2) + 2 * (d_z4 + 4 * d_z22 + 4 * d_d8 + 4 * d_a4 + 4 * d_s4)
    a4 = _exact(a4_twice, 2)
    return a2, a3, a4
