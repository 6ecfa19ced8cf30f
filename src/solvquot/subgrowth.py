"""Counting finite-index subgroups: homomorphisms to symmetric groups, the
M. Hall recursion, normal-subgroup counts through an order-k catalog, and
closed forms for abelian Hall invariants."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import CountError, delta_s4, table1_delta
from .groups import CapExceeded
from .presentations import abelian_invariants, factorize


# ---------------------------------------------------------------------------
# Permutations of {0..k-1} as tuples; p*q applies q first.


def _perms(k):
    return list(itertools.permutations(range(k)))


def _compose(p, q):
    return tuple(p[x] for x in q)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _cycle_type(p):
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if not seen[i]:
            l = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                l += 1
            lens.append(l)
    return tuple(sorted(lens))


def _conjugacy_classes(k):
    """(representative, class size) per cycle type."""
    classes = {}
    for p in _perms(k):
        t = _cycle_type(p)
        if t in classes:
            classes[t][1] += 1
        else:
            classes[t] = [p, 1]
    return [(rep, size) for rep, size in classes.values()]


def _eval_folded(ops, cand, cand_inv, ident):
    v = ident
    for kind, payload in ops:
        if kind == "c":
            v = _compose(v, payload)
        elif payload == 1:
            v = _compose(v, cand)
        else:
            v = _compose(v, cand_inv)
    return v


def _fold(rel, assigned, k):
    """Collapse maximal runs of assigned letters into fixed permutations."""
    ops = []
    acc = None
    for g, e in rel:
        if g in assigned:
            p = assigned[g] if e == 1 else _inverse(assigned[g])
            acc = p if acc is None else _compose(acc, p)
        else:
            if acc is not None:
                ops.append(("c", acc))
                acc = None
            ops.append(("x", e))
    if acc is not None:
        ops.append(("c", acc))
    return ops


def _relator_blocks(rel):
    """Split a word into minimal consecutive blocks with pairwise disjoint
    generator supports."""
    blocks = []
    cur = []
    cur_support = set()
    rest_support = [set() for _ in range(len(rel) + 1)]
    for i in range(len(rel) - 1, -1, -1):
        rest_support[i] = rest_support[i + 1] | {rel[i][0]}
    for i, (g, e) in enumerate(rel):
        cur.append((g, e))
        cur_support.add(g)
        if not (cur_support & rest_support[i + 1]):
            blocks.append((tuple(cur), tuple(sorted(cur_support))))
            cur = []
            cur_support = set()
    return blocks


def _block_class_measure(block, support, k, perms, class_of, sizes):
    """Counting measure of the block's value as a per-element class
    function: entry c is the number of assignments of the block's generators
    whose value is any FIXED element of class c."""
    word, gens = block, list(support)
    ident = tuple(range(k))
    ncl = max(class_of) + 1
    measure = [0] * ncl
    for combo in itertools.product(perms, repeat=len(gens)):
        assigned = dict(zip(gens, combo))
        v = ident
        for g, e in word:
            v = _compose(v, assigned[g] if e == 1 else _inverse(assigned[g]))
        measure[class_of[_perm_index(v, k)]] += 1
    for c in range(ncl):
        if measure[c] % sizes[c]:
            raise ArithmeticError("block measure is not a class function")
        measure[c] //= sizes[c]
    return measure


_PERM_INDEX_CACHE = {}


def _perm_index(p, k):
    cache = _PERM_INDEX_CACHE.get(k)
    if cache is None:
        cache = {q: i for i, q in enumerate(_perms(k))}
        _PERM_INDEX_CACHE[k] = cache
    return cache[p]


def _class_data(k):
    perms = _perms(k)
    keys = {}
    reps = []
    class_of = []
    sizes = []
    for p in perms:
        t = _cycle_type(p)
        if t not in keys:
            keys[t] = len(reps)
            reps.append(p)
            sizes.append(0)
        idx = keys[t]
        class_of.append(idx)
        sizes[idx] += 1
    return perms, reps, sizes, class_of


def _convolve_class(fa, fb, k, perms, reps, class_of):
    """(fa * fb)(x) = sum_a fa(a) fb(a^-1 x), as class functions."""
    out = [0] * len(reps)
    for ci, rep in enumerate(reps):
        total = 0
        for ai, a in enumerate(perms):
            va = fa[class_of[ai]]
            if va:
                total += va * fb[class_of[_perm_index(_compose(_inverse(a), rep), k)]]
        out[ci] = total
    return out


def hom_count_symmetric(P, k, cap=8, threads=1, _class_filter=None):
    """|Hom(G, S_k)| by exhaustive generator-image search with conjugacy
    reduction of the most-used generator, incremental relator pruning, and a
    convolution shortcut for one-relator words that factor into blocks with
    disjoint supports."""
    if k > cap:
        raise CapExceeded("k = %d exceeds the symmetric-group cap %d" % (k, cap))
    if k == 0:
        return 1
    n = P.n
    if not P.relators:
        return math.factorial(k) ** n
    if k == 1:
        return 1

    if len(P.relators) == 1:
        blocks = _relator_blocks(P.relators[0])
        maxg = max(len(sup) for _, sup in blocks)
        if len(blocks) >= 2 and math.factorial(k) ** maxg <= 2_000_000:
            perms, reps, sizes, class_of = _class_data(k)
            measures = [
                _block_class_measure(word, sup, k, perms, class_of, sizes)
                for word, sup in blocks
            ]
            acc = measures[0]
            for mb in measures[1:]:
                acc = _convolve_class(acc, mb, k, perms, reps, class_of)
            ident_class = class_of[_perm_index(tuple(range(k)), k)]
            used = set()
            for _, sup in blocks:
                used.update(sup)
            return acc[ident_class] * math.factorial(k) ** (n - len(used))

    # generic depth-first search, most-used generator first, with the first
    # generator taken up to conjugacy
    occurrences = [0] * n
    for rel in P.relators:
        for g, _ in rel:
            occurrences[g] += 1
    order = sorted(range(n), key=lambda g: (-occurrences[g], g))
    pos_of = {g: i for i, g in enumerate(order)}
    ready_at = [[] for _ in range(n + 1)]
    for rel in P.relators:
        depth = 1 + max(pos_of[g] for g, _ in rel)
        ready_at[depth].append(rel)
    perms = _perms(k)
    classes = _conjugacy_classes(k)
    if _class_filter is not None:
        classes = [classes[i] for i in _class_filter]
    elif threads > 1 and n >= 2 and math.factorial(k) >= 720:
        return _parallel_dfs(P, k, cap, threads, len(classes))
    ident = tuple(range(k))
    total = 0

    def search(depth, assigned, weight):
        nonlocal total
        if depth == n:
            total += weight
            return
        g = order[depth]
        folded = [_fold(rel, assigned, k) for rel in ready_at[depth + 1]]
        candidates = classes if depth == 0 else [(p, 1) for p in perms]
        for p, w in candidates:
            pinv = _inverse(p)
            if all(_eval_folded(ops, p, pinv, ident) == ident for ops in folded):
                assigned[g] = p
                search(depth + 1, assigned, weight * w)
                del assigned[g]

    search(0, {}, 1)
    return total


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
    a_k = h_k/(k-1)! - sum_{l<k} h_{k-l} a_l / (k-l)!."""
    hk = [hom_count_symmetric(P, k, cap=max(cap, kmax), threads=threads)
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
