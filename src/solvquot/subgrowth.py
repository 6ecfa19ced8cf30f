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

from .counting import CountError, delta
from .groups import CapExceeded, builtin_group
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
# The search tests each depth's (row, candidate) pairs in chunks of
# _SIBLINGS // k! rows (at least one), with one of two relator evaluators
# chosen by k alone.  Where a chunk holds two rows or more, k! <= _SIBLINGS / 2,
# that is k <= 6, ``_code_values`` composes permutation codes through the
# Cayley table (1 MB at k = 6), one lookup per pair and letter.  At k >= 7
# a chunk is one row, and ``_relator_values`` folds its assigned letters
# into fixed permutations applied to every candidate at once, so no 50 MB
# table is built (13 rows at a time on codes measured twice as slow there).
_SIBLINGS = 1 << 13


class _Symmetric:
    """The permutations of range(k) and their inverses, their lexicographic
    codes (ascending, so searchsorted ranks a batch), and the conjugacy
    classes, the orbits of conjugation by the adjacent transpositions,
    numbered by their least members, ascending, which is the order the
    permutations first meet them.  The index of a permutation in
    ``perms`` is its code in the Cayley table; the identity's is 0.  The
    centraliser orbits of each class representative are kept once found,
    the identity's (the classes) from the start."""

    def __init__(self, k):
        perms = _lex_permutations(k)
        N = len(perms)
        self.k = k
        self.perms = perms
        self.offsets = _row_offsets(N, k)
        self.inv = np.empty_like(perms)
        self.inv.ravel()[perms + self.offsets] = np.arange(k, dtype=np.int8)
        self.codes = self.code(perms)
        self.inv_code = self.rank(self.inv)
        label, self.reps, self.sizes = _orbits(self.adjacent_conjugations, N)
        self.class_of = np.searchsorted(self.reps, label)
        self._orbits = {0: (self.reps, self.sizes)}

    def code(self, V):
        c = V[:, 0].astype(np.int64)
        for col in range(1, self.k):
            c = c * self.k + V[:, col]
        return c

    def rank(self, V):
        return np.searchsorted(self.codes, self.code(V))

    @functools.cached_property
    def cayley(self):
        """The k! x k! int16 table M[a, b] = index of perms[a] o perms[b]
        (perms[b] applied first), built on first use by a walk from the
        identity along the adjacent transpositions s: the row of s o a is
        M[s][M[a]].  Checked once: row 0 is the identity's and
        M[a, inv_code[a]] = 0 for every a."""
        N = len(self.perms)
        M = np.empty((N, N), dtype=np.int16)
        M[0] = np.arange(N)
        done = np.zeros(N, dtype=bool)
        done[0] = True
        steps = []
        for i in range(self.k - 1):
            s = np.arange(self.k, dtype=np.int8)
            s[i], s[i + 1] = i + 1, i
            steps.append(self.rank(s[self.perms]).astype(np.int16))
        frontier = np.zeros(1, dtype=np.intp)
        for _ in range(self.k * (self.k - 1) // 2):  # the longest word's length
            found = []
            for row in steps:
                new = row[frontier]
                fresh = ~done[new]
                new = new[fresh]
                done[new] = True
                M[new] = row[M[frontier[fresh]]]
                found.append(new)
            frontier = np.concatenate(found)
        if not (done.all() and (M[0] == np.arange(N)).all()
                and (M[np.arange(N), self.inv_code] == 0).all()):
            raise ArithmeticError("Cayley table of S_%d is not a group table" % self.k)
        return M

    @functools.cached_property
    def adjacent_conjugations(self):
        """For each adjacent transposition s = (i i+1), the map a -> index
        of s o perms[a] o s.  s o x swaps the values i and i+1 of x, which
        moves x's lexicographic rank by (k-1-j)! at the first position j
        of the two: up if i comes first, down if i+1 does; x o s is the
        inverse of s o x^-1."""
        N, k = len(self.perms), self.k
        fact = np.array([math.factorial(k - 1 - j) for j in range(k)])
        maps = []
        for i in range(k - 1):
            a, b = self.inv[:, i], self.inv[:, i + 1]
            left = np.arange(N) + np.where(a < b, fact[a], -fact[b])
            maps.append(left[self.inv_code[left[self.inv_code]]].astype(np.int32))
        return maps

    def centraliser_orbits(self, r):
        """The orbits of the centraliser C(p) of the permutation p = perms[r]
        acting on S_k by conjugation: the least index in each orbit,
        ascending, and the orbit sizes.  C(p) is generated by the rotation
        of each cycle of p and the swaps of consecutive cycles of equal
        length; conjugation by each is composed from the adjacent
        transpositions of a bubble sort of it (``_orbits``).  For the
        identity these are the classes, found with them."""
        if r not in self._orbits:
            maps = [self._conjugation(c) for c in _centraliser_gens(self.perms[r])]
            self._orbits[r] = _orbits(maps, len(self.perms))[1:]
        return self._orbits[r]

    def _conjugation(self, c):
        """The map a -> index of c o perms[a] o c^-1.  Sorting c by swaps of
        adjacent positions, c o s_1 o ... o s_m = 1, gives c = s_m o ... o
        s_1, so the map is the conjugation by s_1 followed by s_2, ..."""
        steps = self.adjacent_conjugations
        c = list(c)
        phi = np.arange(len(self.perms))
        for end in range(len(c) - 1, 0, -1):
            for i in range(end):
                if c[i] > c[i + 1]:
                    c[i], c[i + 1] = c[i + 1], c[i]
                    phi = steps[i][phi]
        return phi


def _orbits(maps, N):
    """The orbits on 0..N-1 of the group that the permutation arrays
    ``maps`` generate: each element's label, the least member of its
    orbit; the labels, ascending; and the orbit sizes.  Labels fall to
    their least image under the maps and pointer jumping until none
    moves."""
    label = np.arange(N)
    while True:
        old = label
        for phi in maps:
            label = np.minimum(label, label[phi])
        label = label[label]
        if (label == old).all():
            break
    sizes = np.bincount(label, minlength=N)
    reps = np.flatnonzero(sizes)
    return label, reps, sizes[reps]


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


def _lex_permutations(k):
    """The permutations of range(k) as int8 rows in lexicographic order:
    for each first entry f, ascending, the permutations of range(k - 1)
    with their entries >= f moved up by one."""
    P = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, k + 1):
        P = np.concatenate([np.column_stack([np.full(len(P), f, np.int8), P + (P >= f)])
                            for f in range(m)])
    return P


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


def _search(P, S):
    """Search over generator images in _search_order, keeping the nodes of
    a depth as weighted rows of the images assigned so far.  The first
    generator runs over the class representatives S.reps (weighted by
    S.sizes) and the second over the orbits of the first image's
    centraliser acting by conjugation (weighted by orbit size): conjugating
    by an element of C(r) fixes r and carries the completions of one second
    image onto those of its conjugate; every deeper generator runs over all
    k! images.  Every depth is walked in chunks of rows, and one step,
    ``survivors``, tests a chunk's (row, candidate) pairs against the
    relators that become ready there: on Cayley codes where a chunk holds
    two rows or more (k <= 6), on fixed permutations at k >= 7, where it
    holds one.  The last depth adds up the surviving weights."""
    n = P.n
    order, ready_at = _search_order(P)
    pos = {g: d for d, g in enumerate(order)}
    N = len(S.perms)
    ident = S.perms[0]
    step = max(1, _SIBLINGS // N)
    # row index and image of each pair of a chunk past depth 1, sliced per chunk
    row_of, image = np.repeat(np.arange(step), N), np.tile(np.arange(N), step)
    total = 0

    def survivors(depth, rows):
        """The surviving (row, candidate) pairs of a chunk of rows, as row
        indices and candidate codes, and their weights or None (weight 1)."""
        if depth == 0:
            r_of, cand, w = np.zeros(len(S.reps), dtype=np.intp), S.reps, S.sizes
        elif depth == 1:
            orbits = [S.centraliser_orbits(r) for r in rows[:, 0].tolist()]
            r_of = np.repeat(np.arange(len(rows)), [len(c) for c, _ in orbits])
            cand = np.concatenate([c for c, _ in orbits])
            w = np.concatenate([size for _, size in orbits])
        else:
            r_of, cand, w = row_of[:len(rows) * N], image[:len(rows) * N], None
        if step == 1:  # one row: its assigned images folded into fixed permutations
            X, Xinv = (S.perms, S.inv) if w is None else (S.perms[cand], S.inv[cand])
            assigned = {order[d]: (S.perms[i], S.inv[i]) for d, i in enumerate(rows[0].tolist())}
        for segs in ready_at[depth]:
            if step == 1:
                keep = (_relator_values(segs, assigned, S, X, Xinv) == ident).all(axis=1)
                X, Xinv = X[keep], Xinv[keep]
            else:
                keep = _code_values(segs, rows, pos, S, r_of, cand) == 0
            r_of, cand = r_of[keep], cand[keep]
            w = None if w is None else w[keep]
        return r_of, cand, w

    # depth first over (depth, rows, weights, first row of the next chunk);
    # a loop, not a recursive closure, whose reference cycle would keep each
    # search's arrays alive until the garbage collector runs
    stack = [(0, np.zeros((1, 0), dtype=np.intp), np.ones(1, dtype=np.int64), 0)]
    while stack:
        depth, rows, weights, lo = stack.pop()
        if lo + step < len(rows):
            stack.append((depth, rows, weights, lo + step))
        chunk, w = rows[lo:lo + step], weights[lo:lo + step]
        r_of, cand, cw = survivors(depth, chunk)
        cw = w[r_of] if cw is None else w[r_of] * cw
        if depth == n - 1:
            total += int(cw.sum())
        elif len(cand):
            stack.append((depth + 1, np.column_stack([chunk[r_of], cand]), cw, 0))
    return total


def _code_values(segs, rows, pos, S, r_of, cand):
    """The code of a relator's value, given as _segments, at each
    (row, candidate) pair: rows[r_of] are the codes assigned so far (column
    pos[h] for generator h) and cand the code of its one unassigned
    generator.  Each run of assigned letters is folded once per row; the
    word is then applied right to left, each letter one lookup in the
    flattened Cayley table (int16 codes are widened to index it)."""
    M = S.cayley.ravel()
    N = len(S.perms)
    V = None
    for seg in reversed(segs):
        if isinstance(seg, int):
            at = cand if seg == 1 else S.inv_code[cand]
        else:
            run = None
            for h, e in seg:
                c = rows[:, pos[h]] if e == 1 else S.inv_code[rows[:, pos[h]]]
                run = c if run is None else M[np.multiply(run, N, dtype=np.intp) + c]
            at = run[r_of]
        V = at if V is None else M[np.multiply(at, N, dtype=np.intp) + V]
    return V


def _check_k(k, cap):
    """Refuse k past ``cap``, and past 10 whatever the cap, before any S_k
    is built: its k! permutations alone take k! * k bytes, 36 MB at k = 10
    (where building S_k peaks near 0.5 GB) and 439 MB at k = 11."""
    top = min(cap, 10)
    if k > top:
        raise CapExceeded("k = %d exceeds the symmetric-group cap %d" % (k, top))


def hom_count_symmetric(P, k, cap=8):
    """|Hom(G, S_k)| by exhaustive generator-image search with conjugacy
    reduction of the first two generators (the first over the classes, the
    second over the orbits of the first image's centraliser), incremental
    relator pruning in one step for every depth (candidates chosen by depth,
    relator evaluator by k), and a convolution shortcut for one-relator
    words that factor into blocks with disjoint supports.  Raises
    CapExceeded for k past ``cap`` or past 10 before anything is built."""
    _check_k(k, cap)
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
    return _search(P, S)


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


def ak_sequence(P, kmax, cap=8):
    """Numbers of index-k subgroups for k <= kmax via the recursion
    a_k = h_k/(k-1)! - sum_{l<k} h_{k-l} a_l / (k-l)!.  Raises CapExceeded
    before any h_k is computed if kmax exceeds ``cap`` or 10."""
    _check_k(kmax, cap)
    hk = [hom_count_symmetric(P, k, cap=cap) for k in range(1, kmax + 1)]
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


# The nonabelian groups of order at most 15, as builtin group specs.
_NONABELIAN_BY_ORDER = {
    6: ["D(6)"],
    8: ["D(8)", "Q(8)"],
    10: ["D(10)"],
    12: ["D(12)", "Dstar(12)", "A(4)"],
    14: ["D(14)"],
}


@functools.cache
def _hall_tower(spec):
    """The builtin tower of ``spec``, built on first use and kept for the
    process.  The cache is private: callers of ``builtin_group`` may change
    the towers it returns."""
    return builtin_group(spec)


def _hall_delta(P, spec):
    """delta_Gamma(P) = |Epi(P, Gamma)| / |Aut Gamma| from the lifting
    engine on the builtin tower of Gamma."""
    return delta(P, _hall_tower(spec))


def delta_abelian(P, shapes, inv=None):
    inv = inv if inv is not None else abelian_invariants(P)
    out = 1
    for shape in shapes:
        out *= delta_abelian_closed(inv, shape)
    return out


def ak_normal(P, k):
    """Number of index-k normal subgroups, as the sum of Hall invariants over
    all isomorphism types of groups of order k (k <= 15): closed forms for
    the abelian ones, the lifting engine for the others."""
    if k > 15:
        raise CapExceeded("normal subgroup counts are tabulated for k <= 15 only")
    if k == 1:
        return 1
    inv = abelian_invariants(P)
    total = 0
    for shapes in _abelian_shapes(k):
        total += delta_abelian(P, shapes, inv=inv)
    for spec in _NONABELIAN_BY_ORDER.get(k, ()):
        total += _hall_delta(P, spec)
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
    d_s3 = _hall_delta(P, "D(6)")
    d_d8 = _hall_delta(P, "D(8)")
    d_a4 = _hall_delta(P, "A(4)")
    d_s4 = _hall_delta(P, "S(4)")
    a2 = d_z2
    a3 = d_z3 + 3 * d_s3
    a4_twice = d_z2 * (1 - d_z2) + 2 * (d_z4 + 4 * d_z22 + 4 * d_d8 + 4 * d_a4 + 4 * d_s4)
    a4 = _exact(a4_twice, 2)
    return a2, a3, a4
