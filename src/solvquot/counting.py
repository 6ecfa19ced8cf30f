"""The lifting engine: counting and enumerating Hom and Epi through extension
towers, the Gaschuetz product formula, and closed-form case tables for the
classical source/target families."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cohomology import (
    LayerAction,
    build_system,
    build_systems,
    eval_word_in_table,
    solve_system,
    solve_systems,
    solution_arrays,
    solution_vectors,
)
from .groups import (
    CapExceeded,
    aut_order,
    builtin_group,
    intertwiner_space_dim,
    _mat2_pow,
    _s3_sigma,
)
from .presentations import factorize


class CountError(ArithmeticError):
    pass


LEVEL_KEYS = ("q", "s", "zeta", "kappa", "alpha", "split", "epi_in", "epi_out")


@dataclass
class CountReport:
    """One count and how it was made.  The per-level figures are kept as
    one flat tuple, level after level in the order of LEVEL_KEYS, and
    ``levels`` and ``provenance`` are built on access, so a scan that keeps
    thousands of reports stores no dict per report."""

    source: str
    target: str
    hom: int | None
    epi: int
    aut: int | None
    delta: int | None
    level_values: tuple = ()

    @property
    def levels(self):
        v, k = self.level_values, len(LEVEL_KEYS)
        return [dict(zip(LEVEL_KEYS, v[i : i + k])) for i in range(0, len(v), k)]

    @property
    def provenance(self):
        return {
            "epi": "chief-series lifting",
            "hom": None if self.hom is None else "layerwise cocycle counting",
            "aut": None if self.aut is None else "generator-image search",
        }

    def to_json_dict(self):
        return {
            "source": self.source,
            "target": self.target,
            "hom": self.hom,
            "epi": self.epi,
            "aut": self.aut,
            "delta": self.delta,
            "levels": self.levels,
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# Level-by-level lifting.  A frontier at level i is an (m, n) int32 array
# whose rows, sorted, are generator images of homomorphisms (or
# epimorphisms) into B_i.  Lifting through layer i builds the cocycle
# systems of all m maps in one batched relator walk (``build_systems``),
# eliminates them together mod q (``solve_systems``) and extends every map
# by all of its solutions in one array (``solution_arrays``); no step loops
# over the maps in Python.  ``build_system`` and ``solve_system`` stay the
# per-map reference, for the drivers and evaluations below.
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
    complement lifts with ``epi``.  The rows of ``lay.sections`` must be c
    distinct homomorphic sections of the layer, so that their restrictions
    to an epimorphism's images are its c non-surjective lifts, and those
    restrictions must solve each representative's system."""
    q, s, n = lay.q, lay.s, P.n
    nB = len(lay.base)
    c = lay.complements
    sec = lay.sections.astype(np.int64)
    if c and (
        len(sec) != c
        or len(np.unique(sec, axis=0)) != c
        or (sec % nB != np.arange(nB)).any()
        or (lay.group.as_array()[sec[:, :, None], sec[:, None, :]]
            != sec[:, lay.base.as_array()]).any()
    ):
        raise CountError("the complement rows are not %d distinct homomorphic "
                         "sections of the layer" % c)
    A, chi = build_systems(P, reps, lay)
    sol = solve_systems(A, -chi, q)
    if c:
        X = ((sec[:, reps] // nB)[..., None] // q ** np.arange(s)) % q
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
    and lift_frontier's and _count_top's checks of the complement lifts."""
    reps = _trivial_frontier(P)
    weights = np.ones(1, dtype=np.int64)
    maps_in = 1
    top = len(tower.layers) - 1
    for i, lay in enumerate(tower.layers):
        if i < top:
            lifts, dims = lift_frontier(P, lay, reps, epi, cap=cap, level=i)
            new_reps, new_weights = _orbit_representatives(lay.group, lifts)
            del lifts
            maps_out = int(new_weights.sum())
            if epi and len(new_weights):
                conj = lay.group.conjugation_table()
                centre = int((conj == np.arange(lay.group.n)).all(axis=1).sum())
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


def epi_levels(P, tower, cap=10**7):
    """Iterate (level, frontier, level_stats) for the orbit-reduced
    epimorphism lifting, one item per layer.  The frontier of a level below
    the top is the pair (representatives, orbit sizes); the top level is
    counted, so its frontier is None.  ``epi_in`` and ``epi_out`` in the
    stats are weighted map counts."""
    for lvl, reps, weights, maps_in, maps_out in _orbit_levels(P, tower, epi=True, cap=cap):
        lay = tower.layers[lvl - 1]
        stats = {
            "q": lay.q,
            "s": lay.s,
            "zeta": lay.zeta,
            "kappa": lay.kappa,
            "alpha": lay.alpha,
            "split": lay.c_chi,
            "epi_in": maps_in,
            "epi_out": maps_out,
        }
        yield lvl, (None if reps is None else (reps, weights)), stats


def epi_maps(P, tower, cap=10**7, level=None):
    """Epimorphisms onto the level group (default: the top) as image tuples,
    every map enumerated."""
    top = len(tower.layers) if level is None else level
    frontier = _trivial_frontier(P)
    for i, lay in enumerate(tower.layers[:top]):
        frontier, _ = lift_frontier(P, lay, frontier, epi=True, cap=cap, level=i)
    return _as_tuples(frontier)


def epi_count(P, tower, cap=10**7, with_hom=False, with_aut=True,
              source_label=None):
    values = tuple(stats[k] for _, _, stats in epi_levels(P, tower, cap=cap) for k in LEVEL_KEYS)
    epi = values[-1] if values else 1
    aut = dlt = None
    if with_aut:
        aut = aut_order(tower.group)
        if epi % aut:
            raise CountError("epimorphism count %d is not divisible by |Aut|=%d" % (epi, aut))
        dlt = epi // aut
    hom = hom_count(P, tower, cap=cap) if with_hom else None
    if hom is not None and epi > hom:
        raise CountError("more epimorphisms than homomorphisms")
    return CountReport(
        source=source_label or str(P),
        target=tower.spec or tower.group.name,
        hom=hom,
        epi=epi,
        aut=aut,
        delta=dlt,
        level_values=values,
    )


def delta(P, tower, cap=10**7, source_label=None):
    """Number of normal subgroups with quotient isomorphic to the tower
    group: |Epi|/|Aut|, an exact integer."""
    return epi_count(P, tower, cap=cap, source_label=source_label).delta


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
    """Chief factors classified up to module isomorphism over the full
    group; returns per-type dicts with q, s, zeta, kappa, u (complemented
    count) and v (non-complemented count)."""
    top = len(tower.layers)
    gens = tower.level_gens(top)
    types = []
    for j, lay in enumerate(tower.layers):
        acts_j = [lay.sigma[tower.project(g, top, j)] for g in gens]
        placed = False
        for ty in types:
            if ty["q"] == lay.q and ty["s"] == lay.s:
                if intertwiner_space_dim(ty["acts"], acts_j, lay.q, lay.s) > 0:
                    ty["u"] += lay.c_chi
                    ty["v"] += 1 - lay.c_chi
                    placed = True
                    break
        if not placed:
            types.append(
                {
                    "q": lay.q,
                    "s": lay.s,
                    "zeta": lay.zeta,
                    "kappa": lay.kappa,
                    "u": lay.c_chi,
                    "v": 1 - lay.c_chi,
                    "acts": acts_j,
                }
            )
    return types


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


# ---------------------------------------------------------------------------
# Targets Z_q^2 x| D_2p: the lifting step has epsilon = 1 (split) and
# subtracts exactly one complement class per epimorphism downstairs.


def epi_count_q2p(P, q, p, r, cap=10**7):
    """q^2 sum over Epi(G, D_2p) of (q^beta - 1); must agree with the full
    engine on the corresponding tower."""
    from .cohomology import h1_dim

    tower = builtin_group("V(%d,%d,%d)" % (q, p, r))
    top = len(tower.layers)
    lay = tower.layers[-1]
    total = 0
    for images in epi_maps(P, tower, cap=cap, level=top - 1):
        beta = h1_dim(P, images, lay)
        total += q**beta - 1
    return q**2 * total


# ---------------------------------------------------------------------------
# Alternate drivers for dihedral and binary dihedral targets, built directly
# on coordinate groups with the textbook cocycle formulas rather than on the
# extracted towers.


def _dihedral_coord_table(l):
    from .groups import _dihedral_data

    return _dihedral_data(2 * l)[0]


def _binary_dihedral_coord_table(L):
    # order 2L with rotation part Z_L; b^2 = a^{L/2}
    from .groups import _binary_dihedral_data

    return _binary_dihedral_data(2 * L)[0]


def _dihedral_layer(q, l):
    """Z_q x_{sigma,chi} D_2l -> D_2ql with the remainder cocycle
    chi(a^u b^v, a^s b^t) = (u + s(-1)^v - r)/l mod q, 0 <= r < l."""
    base = _dihedral_coord_table(l)
    sigma = []
    chi = []
    for i in range(2 * l):
        v, u = divmod(i, l)
        sigma.append(((q - 1,),) if v else ((1,),))
    for i in range(2 * l):
        v1, u1 = divmod(i, l)
        row = []
        for j in range(2 * l):
            v2, u2 = divmod(j, l)
            e = (u1 + (u2 if v1 == 0 else -u2)) % (q * l)
            row.append(((e // l) % q,))
        chi.append(row)
    return LayerAction(q, 1, base, sigma, chi)


def _quaternion_layer(l):
    """Z_2 x_chi D_2l -> binary dihedral of order 4l: the dihedral remainder
    cocycle plus 1 whenever both arguments are reflections."""
    base = _dihedral_coord_table(l)
    sigma = [((1,),) for _ in range(2 * l)]
    chi = []
    for i in range(2 * l):
        v1, u1 = divmod(i, l)
        row = []
        for j in range(2 * l):
            v2, u2 = divmod(j, l)
            e = (u1 + (u2 if v1 == 0 else -u2)) % (2 * l)
            k = e // l
            if v1 and v2:
                k += 1
            row.append((k % 2,))
        chi.append(row)
    return LayerAction(2, 1, base, sigma, chi)


def _binary_dihedral_layer(q, L):
    """Z_q x_{sigma,chi} Dstar_{2L} -> Dstar_{2qL}, odd q."""
    base = _binary_dihedral_coord_table(L)
    sigma = []
    chi = []
    for i in range(2 * L):
        v, u = divmod(i, L)
        sigma.append((((q - 1) % q,),) if v else ((1,),))
    for i in range(2 * L):
        v1, u1 = divmod(i, L)
        row = []
        for j in range(2 * L):
            v2, u2 = divmod(j, L)
            e = (u1 + (u2 if v1 == 0 else -u2) + (q * L // 2 if v1 and v2 else 0)) % (q * L)
            row.append(((e // L) % q,))
        chi.append(row)
    return LayerAction(q, 1, base, sigma, chi)


def _epis_to_z2(P):
    """Epimorphisms onto Z_2 as image tuples into the coordinate table of
    D_2 (u=0, v in {0,1})."""
    out = []
    for combo in itertools.product(range(2), repeat=P.n):
        if not any(combo):
            continue
        if all(sum(e * combo[g] for g, e in rel) % 2 == 0 for rel in P.relators):
            out.append(tuple(combo))
    return out


def _lift_through_coord_layer(P, lay, frontier, new_table, new_l):
    """Lift image tuples through a coordinate layer.  Images are indices in
    the dihedral-style coordinate table (v * l + u) of the base; lifted
    images re-encode as v * new_l + (u + l * k), and only surjective lifts
    (plain closure in the new coordinate table) are kept."""
    l = len(lay.base) // 2
    out = []
    full = new_table.n
    for images in frontier:
        sys = build_system(P, images, lay, check=False)
        res = solve_system(sys)
        if not res.solvable:
            continue
        for vecs in solution_vectors(sys, result=res):
            lifted = []
            for (k,), img in zip(vecs, images):
                v, u = divmod(img, l)
                lifted.append(v * new_l + (u + l * k) % new_l)
            if len(new_table.closure(lifted)) == full:
                out.append(tuple(lifted))
    return out


def _prime_seq(m):
    seq = []
    fac = factorize(m)
    for p in sorted(fac):
        seq += [p] * fac[p]
    return seq


def epi_dihedral_recursive(P, m, cap=10**7):
    """|Epi(G, D_2m)| by the divisor-chain recursion with the explicit
    remainder cocycles."""
    frontier = _epis_to_z2(P)
    l = 1
    for q in _prime_seq(m):
        lay = _dihedral_layer(q, l)
        frontier = _lift_through_coord_layer(
            P, lay, frontier, _dihedral_coord_table(q * l), q * l
        )
        if len(frontier) > cap:
            raise CapExceeded("dihedral frontier exceeds cap")
        l *= q
    return len(frontier)


def epi_binary_dihedral_recursive(P, m, cap=10**7):
    """|Epi(G, Dstar_4m)| by the divisor-chain recursion: dihedral 2-layers,
    one quaternion-type layer, then odd-prime layers on binary dihedral
    bases."""
    frontier = _epis_to_z2(P)
    a0 = factorize(m).get(2, 0)
    l = 1
    for _ in range(a0):
        lay = _dihedral_layer(2, l)
        frontier = _lift_through_coord_layer(
            P, lay, frontier, _dihedral_coord_table(2 * l), 2 * l
        )
        l *= 2
    # quaternion step: base D_{2l}, result the binary dihedral group with
    # rotation part Z_{2l}
    lay = _quaternion_layer(l)
    frontier = _lift_through_coord_layer(
        P, lay, frontier, _binary_dihedral_coord_table(2 * l), 2 * l
    )
    L = 2 * l
    for q in _prime_seq(m >> a0):
        lay = _binary_dihedral_layer(q, L)
        frontier = _lift_through_coord_layer(
            P, lay, frontier, _binary_dihedral_coord_table(q * L), q * L
        )
        if len(frontier) > cap:
            raise CapExceeded("binary dihedral frontier exceeds cap")
        L *= q
    return len(frontier)


# ---------------------------------------------------------------------------
# One-extension evaluations of the small Hall invariants: each target is a
# single elementary layer over a small abelian (or S_3) base, evaluated by
# enumerating epimorphisms onto the base directly.


def enumerate_epis_to_table(P, table):
    out = []
    for images in itertools.product(range(table.n), repeat=P.n):
        ok = True
        for rel in P.relators:
            if eval_word_in_table(table, images, rel) != 0:
                ok = False
                break
        if ok and len(table.closure(images)) == table.n:
            out.append(images)
    return out


def _elementary_table(q, s):
    from .groups import table_from_coords

    elements = list(itertools.product(*[range(q)] * s))
    elements.sort(key=lambda v: sum(c * q**i for i, c in enumerate(v)))
    return table_from_coords(
        elements, lambda a, b: tuple((x + y) % q for x, y in zip(a, b)), name="Z%d^%d" % (q, s)
    )


def _cyclic_table(n):
    from .groups import _cyclic_data

    return _cyclic_data(n)[0]


def _d8_center_layer():
    # central Z_2 under Z_2^2 = <a, b>; the cocycle takes the value 1 exactly
    # on (a,a), (b,a), (a,ab), (b,ab)
    base = _elementary_table(2, 2)
    nonzero = {(1, 1), (2, 1), (1, 3), (2, 3)}
    chi = [[(1,) if (i, j) in nonzero else (0,) for j in range(4)] for i in range(4)]
    sigma = [((1,),)] * 4
    return LayerAction(2, 1, base, sigma, chi)


def _q8_center_layer():
    # central Z_2 under Z_2^2, vanishing only on (a,b), (b,ab), (ab,a)
    base = _elementary_table(2, 2)
    zero = {(1, 2), (2, 3), (3, 1)}
    chi = [
        [(0,) if i == 0 or j == 0 or (i, j) in zero else (1,) for j in range(4)]
        for i in range(4)
    ]
    sigma = [((1,),)] * 4
    return LayerAction(2, 1, base, sigma, chi)


def _s4_top_layer():
    # Z_2^2 under S_3 in dihedral coordinates (v*3 + w), split
    base = _dihedral_coord_table(3)
    sigma = []
    for i in range(6):
        v, w = divmod(i, 3)
        sigma.append(_s3_sigma(w, v))
    return LayerAction(2, 2, base, sigma, None)


def _a4_top_layer():
    base = _cyclic_table(3)
    sigma = [_mat2_pow(((0, 1), (1, 1)), t, 2) for t in range(3)]
    return LayerAction(2, 2, base, sigma, None)


def _count_with_layer(P, base, lay, term):
    """Sum term(epsilon, d, beta) over all epimorphisms of P onto the base
    of the layer."""
    from .cohomology import fixed_subspace_dim

    total = 0
    for images in enumerate_epis_to_table(P, base):
        sys = build_system(P, images, lay, check=False)
        res = solve_system(sys)
        eps = 1 if res.solvable else 0
        d = res.count_exponent
        beta = d - (lay.s - fixed_subspace_dim(lay, images))
        total += term(eps, d, beta)
    return total


def _exact_div(num, den):
    if num % den:
        raise CountError("expected %d to be divisible by %d" % (num, den))
    return num // den


def dihedral_prime_delta(P, p):
    """delta for the dihedral group of order 2p, p an odd prime:
    sum over Epi(G, Z_2) of (p^beta - 1) / (p - 1)."""
    lay = _dihedral_layer(p, 1)
    base = lay.base
    total = _count_with_layer(P, base, lay, lambda eps, d, beta: p**beta - 1)
    return _exact_div(total, p - 1)


def table1_delta(P, name):
    """Hall invariants of the nonabelian groups of order at most 12, each
    evaluated through a single twisted-cohomology layer."""
    if name == "S3":
        return dihedral_prime_delta(P, 3)
    if name == "D8":
        lay = _d8_center_layer()
        total = _count_with_layer(P, lay.base, lay, lambda eps, d, beta: eps * 2**d)
        return _exact_div(total, 8)
    if name == "Q8":
        lay = _q8_center_layer()
        total = _count_with_layer(P, lay.base, lay, lambda eps, d, beta: eps * 2**d)
        return _exact_div(total, 24)
    if name == "D12":
        base = _elementary_table(2, 2)
        sigma = [((1,),), ((2,),), ((1,),), ((2,),)]  # reflections invert Z_3
        lay = LayerAction(3, 1, base, sigma, None)
        total = _count_with_layer(P, base, lay, lambda eps, d, beta: 3**beta - 1)
        return _exact_div(total, 4)
    if name == "Dstar12":
        base = _cyclic_table(4)
        sigma = [((1,),), ((2,),), ((1,),), ((2,),)]
        lay = LayerAction(3, 1, base, sigma, None)
        total = _count_with_layer(P, base, lay, lambda eps, d, beta: 3**beta - 1)
        return _exact_div(total, 4)
    if name == "A4":
        lay = _a4_top_layer()
        total = _count_with_layer(P, lay.base, lay, lambda eps, d, beta: 2**beta - 1)
        return _exact_div(total, 6)
    if name == "D10":
        return dihedral_prime_delta(P, 5)
    if name == "D14":
        return dihedral_prime_delta(P, 7)
    raise ValueError("no one-layer evaluation for %r" % name)


def delta_s4(P):
    """delta_{S_4} = (1/6) sum over Epi(G, S_3) of (2^beta - 1)."""
    lay = _s4_top_layer()
    total = _count_with_layer(P, lay.base, lay, lambda eps, d, beta: 2**beta - 1)
    return _exact_div(total, 6)
