"""The lifting engine: counting and enumerating Hom and Epi through extension
towers, the Gaschuetz product formula, and closed-form case tables for the
classical source/target families."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cohomology import build_systems, solve_systems, solution_arrays
from .groups import CapExceeded, aut_order
from .presentations import factorize


class CountError(ArithmeticError):
    pass


@dataclass
class CountReport:
    """|Epi| onto a tower group; with |Aut| asked for, also |Aut| and delta =
    |Epi| / |Aut|.  ``level_epi`` holds the weighted Epi count after each
    layer, and ``levels`` pairs them with the layer constants of ``tower``."""

    tower: object = field(repr=False)
    epi: int
    aut: int | None
    delta: int | None
    level_epi: tuple = ()

    @property
    def levels(self):
        out, epi_in = [], 1
        for lay, epi_out in zip(self.tower.layers, self.level_epi):
            out.append({"q": lay.q, "s": lay.s, "zeta": lay.zeta, "kappa": lay.kappa,
                        "alpha": lay.alpha, "split": lay.c_chi,
                        "epi_in": epi_in, "epi_out": epi_out})
            epi_in = epi_out
        return out


# ---------------------------------------------------------------------------
# Level-by-level lifting.  A frontier at level i is an (m, n) int32 array
# whose rows, sorted, are generator images of homomorphisms (or
# epimorphisms) into B_i.  Lifting through layer i builds the cocycle
# systems of all m maps in one batched relator walk (``build_systems``),
# eliminates them together mod q (``solve_systems``) and extends every map
# by all of its solutions in one array (``solution_arrays``); no step loops
# over the maps in Python.
#
# The counts carry the frontier modulo conjugation.  B_i acts on the maps
# into B_i by conjugating every generator image.  Conjugating a map by b
# matches its lifts one-to-one with those of the conjugate map (through
# conjugation by a preimage of b), so the number of lifts is constant on an
# orbit, and every orbit one level up contains a lift of the representative
# of the orbit below it.  So each level keeps one representative per orbit,
# its least conjugate, weighted by the orbit size; the lifts of the
# representatives are canonicalised and deduplicated one level up.  The top
# layer is counted, epsilon * q^d (minus the c complement lifts for Epi) per
# representative, and never enumerated.

_BLOCK = 1 << 20  # entries per block of the conjugate arrays


def _trivial_frontier(P):
    return np.zeros((1, P.n), dtype=np.int32)


def _as_tuples(frontier):
    return [tuple(row) for row in frontier.tolist()]


def lift_frontier(P, lay, frontier, epi, cap=10**7, level=0):
    """Lift every map of ``frontier`` (an int32 array of image rows into the
    base of ``lay``, the layer above tower level ``level``) through ``lay``.

    Returns the lifts as a row-sorted int32 array and, per map, the exponent
    d of its q^d lifts, or None where the map does not lift.  With ``epi``
    the frontier must consist of epimorphisms: the non-surjective lifts of a
    map with images b are then exactly the c rows ``lay.sections[:, b]``,
    one per complement of the layer's kernel, and each must occur exactly
    once among the map's lifts.  ``cap`` bounds the number of lifts kept; it
    is checked once every system is solved, before any lift is built."""
    q, s, n = lay.q, lay.s, P.n
    nB = len(lay.base)
    c = lay.complements if epi else 0
    A, chi = build_systems(P, frontier, lay)
    sol = solve_systems(A, -chi, q)
    dims = _dims(sol)
    size = sum(q**d for d in dims if d is not None) - c * len(frontier)
    if size > cap:
        raise CapExceeded(
            "%s frontier at level %d would reach %d maps, over the cap %d"
            % ("epimorphism" if epi else "homomorphism", level + 1, size, cap)
        )
    counts = np.where(sol.solvable, q**sol.dims, 0)
    X = solution_arrays(sol)
    if len(X) != counts.sum():
        raise CountError("lift enumeration disagrees with the solution count")
    owner = np.repeat(np.arange(len(frontier)), counts)
    lifts = (X.reshape(-1, n, s) @ q ** np.arange(s, dtype=np.int64)) * nB + frontier[owner]
    del X
    if c:
        # match each map's c complement rows with its lifts by (owner, row)
        comp = lay.sections[:, frontier].reshape(-1, n)
        comp_owner = np.tile(np.arange(len(frontier)), len(lay.sections))
        keys = _row_keys(np.concatenate([owner, comp_owner]),
                         np.concatenate([lifts, comp]), len(frontier), len(lay.group))
        lift_keys, comp_keys = keys[: len(lifts)], keys[len(lifts) :]
        by_key = np.argsort(comp_keys)
        at = np.minimum(np.searchsorted(comp_keys[by_key], lift_keys), len(comp_keys) - 1)
        hit = comp_keys[by_key[at]] == lift_keys
        if (np.bincount(by_key[at[hit]], minlength=len(comp_keys)) != 1).any():
            raise CountError("a complement lift is not found exactly once among "
                             "the lifts of its map")
        keep = ~hit
        kept = np.bincount(owner[keep], minlength=len(frontier))
        if (kept != counts - c).any():
            j = int(np.nonzero(kept != counts - c)[0][0])
            raise CountError(
                "surjective lift tally %d disagrees with the complement "
                "subtraction %d - %d" % (kept[j], counts[j], c)
            )
        lifts = lifts[keep]
    lifts = lifts.astype(np.int32)
    return lifts[np.lexsort(lifts.T[::-1])], dims


def _row_keys(owner, rows, m, radix):
    """One int64 per (owner, row) pair, equal exactly where the pairs are:
    owner < m and the entries < radix are packed in mixed radix, and
    renumbered densely whenever the next column could overflow."""
    key, bound = owner.astype(np.int64), m
    for col in rows.T:
        if bound * radix >= 1 << 62:
            uniq, key = np.unique(key, return_inverse=True)
            key, bound = key.reshape(-1), len(uniq)
        key = key * radix + col
        bound *= radix
    return key


def _dims(sol):
    """Per system of ``sol``, the exponent d of its q^d solutions, or None
    where it has none."""
    return [d if ok else None for d, ok in zip(sol.dims.tolist(), sol.solvable.tolist())]


def _orbit_representatives(table, rows):
    """The distinct least conjugates of ``rows`` under conjugation by the
    group of ``table``, row-sorted, and the size of each one's orbit: |B|
    over the number of elements fixing the row (the centraliser of its
    images), the same rule for Hom and Epi."""
    conj = table.conjugation_table()
    nB = table.n
    m, n = rows.shape
    step = max(1, _BLOCK // (nB * n))
    least = np.empty_like(rows)
    fixed = np.empty(m, dtype=np.int64)
    for lo in range(0, m, step):
        block = conj[:, rows[lo : lo + step]]  # (nB, k, n): every conjugate
        fixed[lo : lo + step] = (block == rows[lo : lo + step]).all(axis=2).sum(axis=0)
        alive = np.ones(block.shape[:2], dtype=bool)
        for g in range(n):
            col = np.where(alive, block[:, :, g], nB)
            low = col.min(axis=0)
            alive &= col == low
            least[lo : lo + step, g] = low
    order = np.lexsort(least.T[::-1])
    least, fixed = least[order], fixed[order]
    keep = np.ones(m, dtype=bool)
    keep[1:] = (least[1:] != least[:-1]).any(axis=1)
    return least[keep], nB // fixed[keep]


def _count_top(P, lay, reps, epi):
    """Solve the system of each representative through the top layer and
    nothing more.  Returns the exponents d (None where a map does not lift)
    and, per representative, its number of lifts, epsilon * q^d, less the c
    complement lifts with ``epi``.  The rows of ``lay.sections`` are c
    distinct homomorphic sections of the layer (checked when they are set),
    so their restrictions to an epimorphism's images are its c
    non-surjective lifts; here those restrictions must solve each
    representative's system."""
    q, s, n = lay.q, lay.s, P.n
    nB = len(lay.base)
    c = lay.complements
    A, chi = build_systems(P, reps, lay)
    sol = solve_systems(A, -chi, q)
    if c:
        X = ((lay.sections[:, reps] // nB)[..., None] // q ** np.arange(s)) % q
        X = X.reshape(c, len(reps), n * s)
        if ((np.einsum("jrk,cjk->cjr", A, X) + chi) % q).any() or not sol.solvable.all():
            raise CountError("a complement lift does not solve the lifting "
                             "system of its map")
    dims = _dims(sol)
    counts = [q**d - (c if epi else 0) if d is not None else 0 for d in dims]
    return dims, counts


def _closed_form_lifts(lay, d, epi):
    """Lifts of one map through ``lay`` by the paper's formula: q^d, or
    E^zeta (q^(d - s zeta) - split) surjective ones with ``epi``."""
    q = lay.q
    if not epi:
        return q**d if d is not None else 0
    split = lay.c_chi * q ** (lay.kappa * (lay.alpha - 1))
    return (lay.E**lay.zeta) * ((q ** (d - lay.s * lay.zeta) if d is not None else 0) - split)


def _orbit_levels(P, tower, epi, cap=10**7):
    """Lift one representative per conjugacy orbit through every layer below
    the top and count the top layer.  Yields, per layer i, (i + 1, reps,
    weights, maps_in, maps_out): the level-(i + 1) representatives and their
    orbit sizes (both None at the top, which is counted and not built) and
    the weighted map counts below and above the layer.

    Self-checks: the weighted closed-form count of each layer equals the
    weighted count above it; with ``epi`` every orbit size is |B : Z(B)|;
    and lift_frontier's and _count_top's checks of the complement lifts.
    Once a level has no representative, every layer above it yields
    maps_out = 0 without building or solving anything."""
    reps = _trivial_frontier(P)
    weights = np.ones(1, dtype=np.int64)
    maps_in = 1
    top = len(tower.layers) - 1
    for i, lay in enumerate(tower.layers):
        if not len(reps):
            if i < top:
                yield i + 1, reps, weights, 0, 0
            else:
                yield i + 1, None, None, 0, 0
            continue
        if i < top:
            lifts, dims = lift_frontier(P, lay, reps, epi, cap=cap, level=i)
            new_reps, new_weights = _orbit_representatives(lay.group, lifts)
            del lifts
            maps_out = int(new_weights.sum())
            if epi and len(new_weights):
                centre = lay.group.center_order()
                if (new_weights != lay.group.n // centre).any():
                    raise CountError("an epimorphism orbit at level %d has a size "
                                     "other than |B : Z(B)| = %d"
                                     % (i + 1, lay.group.n // centre))
        else:
            dims, counts = _count_top(P, lay, reps, epi)
            new_reps = new_weights = None
            maps_out = sum(w * k for w, k in zip(weights.tolist(), counts))
        closed = sum(w * _closed_form_lifts(lay, d, epi)
                     for w, d in zip(weights.tolist(), dims))
        if closed != maps_out:
            raise CountError(
                "level arithmetic %d disagrees with the orbit-weighted tally %d "
                "at level %d" % (closed, maps_out, i + 1)
            )
        yield i + 1, new_reps, new_weights, maps_in, maps_out
        reps, weights, maps_in = new_reps, new_weights, maps_out


def hom_count(P, tower, cap=10**7):
    """|Hom|, lifting one map per conjugacy orbit and counting the top
    layer."""
    count = 1
    for *_, count in _orbit_levels(P, tower, epi=False, cap=cap):
        pass
    return count


def epi_maps(P, tower, cap=10**7, level=None):
    """Epimorphisms onto the level group (default: the top) as image tuples,
    every map enumerated."""
    top = len(tower.layers) if level is None else level
    frontier = _trivial_frontier(P)
    for i, lay in enumerate(tower.layers[:top]):
        frontier, _ = lift_frontier(P, lay, frontier, epi=True, cap=cap, level=i)
    return _as_tuples(frontier)


def epi_count(P, tower, cap=10**7, with_aut=True):
    """|Epi|, lifting one epimorphism per conjugacy orbit and counting the
    top layer.  With ``with_aut`` also |Aut| by the generator-image search
    of ``aut_order``, which must divide |Epi|, and delta = |Epi| / |Aut|."""
    level_epi = tuple(out for *_, out in _orbit_levels(P, tower, epi=True, cap=cap))
    epi = level_epi[-1] if level_epi else 1
    aut = dlt = None
    if with_aut:
        aut = aut_order(tower.group)
        if epi % aut:
            raise CountError("epimorphism count %d is not divisible by |Aut|=%d" % (epi, aut))
        dlt = epi // aut
    return CountReport(tower, epi, aut, dlt, level_epi)


def delta(P, tower, cap=10**7):
    """Number of normal subgroups with quotient isomorphic to the tower
    group: |Epi|/|Aut|, an exact integer."""
    return epi_count(P, tower, cap=cap).delta


# ---------------------------------------------------------------------------
# |Aut| through the lifting engine: |Aut B| = |Epi(pres(B), B)| for the
# power-conjugate presentation of the tower group, an independent check on
# the generator-image search of ``aut_order``.


def aut_order_by_lifting(tower):
    """|Aut| = |Epi(G, G)| counted by the same recursion that counts
    epimorphisms, with the group's power-conjugate presentation as source."""
    return epi_count(tower.presentation(), tower, with_aut=False).epi


# ---------------------------------------------------------------------------
# Gaschuetz' product formula for |Epi(F_n, Gamma)|.


def chief_module_types(tower):
    """Chief factors grouped by their module-isomorphism class over the full
    group (``module_type``, set by the tower); returns per-class dicts with
    q, s, zeta, kappa, u (complemented count) and v (non-complemented
    count)."""
    types = {}
    for lay in tower.layers:
        ty = types.setdefault(lay.module_type, {"q": lay.q, "s": lay.s, "zeta": lay.zeta,
                                                "kappa": lay.kappa, "u": 0, "v": 0})
        ty["u"] += lay.c_chi
        ty["v"] += 1 - lay.c_chi
    return list(types.values())


def gaschutz_eulerian(tower, n):
    """Number of generating n-tuples of a finite solvable group."""
    total = 1
    for ty in chief_module_types(tower):
        q, s, zeta, kappa = ty["q"], ty["s"], ty["zeta"], ty["kappa"]
        total *= q ** (s * ty["v"] * n)
        for t in range(ty["u"]):
            total *= q ** (s * n) - q ** (s * zeta + t * kappa)
    return total


# ---------------------------------------------------------------------------
# Closed forms for the classical families (exact integer arithmetic).


def _prime_list(m):
    return sorted(factorize(m))


def closed_form_eulerian(family, params, n):
    if family == "dihedral":
        (m,) = params
        out = Fraction((2**n - 1) * m**n)
        for qi in _prime_list(m):
            out *= 1 - Fraction(qi) ** (1 - n)
        return int(out)
    if family == "binary_dihedral":
        (m,) = params
        out = Fraction((4**n - 2**n) * m**n)
        for qi in _prime_list(m):
            out *= 1 - Fraction(qi) ** (1 - n)
        return int(out)
    if family in ("surface", "nonorientable"):
        g, m = params
        if m % 4 == 0:
            # the displayed closed forms fail for 4 | m (already for the
            # genus-2 surface group onto the dihedral group of order 16,
            # where direct enumeration doubles the displayed value); use the
            # lifting engine there
            raise ValueError("surface closed forms need m odd or m = 2 mod 4")
    if family == "surface":
        g, m = params
        out = Fraction(m ** (2 * g - 1) * (2 ** (2 * g) - 1))
        for qi in _prime_list(m):
            if qi != 2:
                out *= 1 - Fraction(qi) ** (2 - 2 * g)
        if m % 2 == 0:
            out *= 2 - Fraction(2) ** (2 - 2 * g)
        return int(out)
    if family == "nonorientable":
        g, m = params
        odd = [qi for qi in _prime_list(m) if qi != 2]
        s1 = Fraction(2**g - 2)
        s2 = Fraction(1)
        for qi in odd:
            s1 *= 1 - Fraction(qi) ** (2 - g)
            s2 *= qi - Fraction(qi) ** (2 - g)
        out = Fraction(m) ** (g - 1) * (s1 + s2)
        if m % 2 == 0:
            out *= 2 - Fraction(2) ** (2 - g)
        return int(out)
    raise ValueError("unknown closed-form family %r" % family)


def closed_form_delta(family, params):
    if family == "bs_d8":
        m, n = params
        if (n - m) % 2:
            return 0
        if m % 2 == 0 and (n - m) % 4 == 0:
            return 3
        if m % 2 == 0 and (n - m) % 4 == 2:
            return 2
        if m % 2 == 1 and (n - m) % 4 == 2:
            return 1
        return 0
    if family == "bs_q8":
        m, n = params
        return 1 if (n - m) % 2 == 0 and (m + n) % 4 == 0 else 0
    if family == "parafree_s4":
        m, n = params
        return 17 if m % 2 == 1 and (m - n) % 4 == 2 else 9
    if family == "braid_metabelian":
        kind, r, k = params
        if kind == 1:
            if r != 3 or k % 6 not in (2, 4):
                raise ValueError("type 1 is Z_3 x| Z_k with k = +-2 mod 6")
            return 1
        if kind == 2:
            if r <= 3 or k % 6:
                raise ValueError("type 2 is Z_r x| Z_k with r > 3, 6 | k")
            return 2
        if kind == 3:
            if r != 2 or k % 6 != 3:
                raise ValueError("type 3 is Z_2^2 x| Z_k with k = 3 mod 6")
            return 1
        if kind == 4:
            if r <= 3 or k % 6:
                raise ValueError("type 4 is Z_r^2 x| Z_k with r > 3, 6 | k")
            return 1
        raise ValueError("unknown metabelian quotient type %r" % kind)
    if family == "braid_solvable":
        (cyclic,) = params
        return 1 if cyclic else 0
    raise ValueError("unknown closed-form family %r" % family)
