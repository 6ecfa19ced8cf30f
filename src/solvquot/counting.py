"""The lifting engine: counting and enumerating Hom and Epi through extension
towers, and the Gaschuetz product formula."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import (_BLOCK, _distinct_rows, build_systems, eliminate, solution_arrays,
                         solution_dims, solve_systems)
from .groups import CapExceeded, _digit_vectors, aut_order
from .presentations import abelianized_jacobian

# most maps one tower level may build (the lifts of its orbit representatives)
DEFAULT_FRONTIER_CAP = 10**7


class CountError(ArithmeticError):
    pass


@dataclass(slots=True)
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
# Level-by-level lifting.  A frontier at level i is an (m, n) int32 array whose
# rows, a set in no particular order, are generator images of homomorphisms (or
# epimorphisms) into B_i.  Lifting through layer i builds the cocycle systems
# of all m maps in one batched relator walk (``build_systems``), eliminates
# each distinct matrix among them once mod q (``solve_systems``) and extends
# every map by all of its solutions in one array (``solution_arrays``); no step
# loops over the maps in Python.  Where the layer acts trivially, or the source
# has no relators, every map has the same matrix (the abelianized Fox Jacobian
# tensor I_s), and the level applies the elimination of that one matrix that
# its source keeps for (q, s) (``_shared_elimination``), after checking that
# the maps' matrices equal the kept one.  The kept matrix is made from the
# relators' exponent sums, not from a walk, and its d is checked against the
# abelian invariants when it is made.  Every level above the bottom, the top
# included, builds its systems through ``_solve_level``, which checks that
# each map's c complement lifts solve its system; for Epi they are the
# non-surjective lifts, dropped at their distinct places in the map's block
# of solutions (``SolutionBatch.place``), and a level that keeps no lift
# builds none.
#
# Every count carries the frontier modulo the group A_i of automorphisms of
# B_i that the tower chooses (``ExtensionTower.orbit_group``), acting on
# every generator image: the image of A = Aut(Gamma, series), or Inn(B_i)
# where the tower's series-restricted search for A is refused.  Each alpha_i
# is induced by an automorphism of Gamma fixing the series, hence by an
# alpha_(i+1) one level up, which matches the lifts of a map one-to-one with
# those of its image; so any such group gives exact counts: the number of
# lifts is constant on an orbit, and every orbit one level up contains a
# lift of the representative of the orbit below it.  So each level keeps one
# representative per orbit, its least image, weighted by the orbit size
# |A_i| / |Stab(row)|; the lifts of the representatives are canonicalised
# and deduplicated one level up.  The top layer is counted, epsilon * q^d
# (minus the c complement lifts for Epi) per representative, d by rank
# (``solution_dims``, or the kept elimination where the maps share it), and
# never enumerated.
#
# The bottom layer of every tower is Z_q^s over the trivial group, with
# trivial action and no cocycle, so the lifts of the trivial map through it
# are Hom(G, Z_q^s), the homogeneous solutions of the kept elimination
# (minus the zero lift for Epi).  The bottom level builds no system: it
# reads them off that elimination (``_bottom_lifts``), which expands them
# once and keeps them, and a one-layer tower's top reads only its d.  The
# cap is compared with their number before they are expanded, and the level
# arithmetic runs on every count.


def lift_frontier(P, lay, frontier, epi, cap=DEFAULT_FRONTIER_CAP, level=0):
    """Lift every map of ``frontier`` (an int32 array of image rows into the
    base of ``lay``, the layer above tower level ``level``) through ``lay``.

    Returns the lifts as an int32 array of image rows, each map's in the
    grid order of its solutions, and, per map, the exponent d of its q^d
    lifts as an int64 array, -1 where the map does not lift.
    With ``epi`` the frontier must consist of epimorphisms: the
    non-surjective lifts of a map are then exactly its c complement lifts
    (``_solve_level``), which are dropped by their place in the map's block
    of solutions; the c places of every map must be distinct, so that it
    keeps q^d - c lifts.  Where that keeps none, no lift is built.  ``cap``
    bounds the number of lifts kept; it is checked once every system is
    solved, before any lift is built."""
    q, s, n = lay.q, lay.s, P.n
    nB, m = len(lay.base), len(frontier)
    c = lay.complements if epi else 0
    sol, dims, places = _solve_level(P, lay, frontier, places=bool(c))
    size = sum(k * q**d for d, k in enumerate(np.bincount(dims[dims >= 0]).tolist()))
    _check_cap(size - c * m, cap, epi, level)
    counts = np.where(sol.solvable, q**sol.dims, 0)
    if c:  # the c complement lifts of each map must be c distinct places in its block
        ranked = np.sort(places, axis=0)
        wrong = (ranked[1:] == ranked[:-1]).any(axis=0) | (ranked[-1] >= counts) | (len(places) != c)
        if wrong.any():
            j = wrong.argmax()
            raise CountError("surjective lift tally %d disagrees with the complement subtraction "
                             "%d - %d" % (counts[j] - len(set(places[:, j])), counts[j], c))
    if size == c * m:  # every lift is a complement lift, or none lifts
        return np.empty((0, n), dtype=np.int32), dims
    X = solution_arrays(sol)
    if len(X) != counts.sum():
        raise CountError("lift enumeration disagrees with the solution count")
    lifts = X.reshape(-1, n, s) @ q ** np.arange(s, dtype=np.int64)
    del X
    lifts *= nB
    lifts += frontier[np.repeat(np.arange(m), counts)]
    if c:
        keep = np.ones(len(lifts), dtype=bool)
        keep[(np.cumsum(counts) - counts + places).ravel()] = False
        lifts = lifts[keep]
    return lifts.astype(np.int32), dims


def _solve_level(P, lay, images, places=False, top=False):
    """The lifting systems of the maps ``images`` through ``lay``: their
    SolutionBatch, the exponent d of each one's q^d solutions (-1 where it
    has none) and, with ``places``, the place of each map's complement
    lifts in its block of solutions (``SolutionBatch.place``) as a (c, m)
    array, else None.  A level whose maps share their matrix solves
    through the elimination its source keeps (``_shared_elimination``),
    which checks each map's matrix; at the ``top`` of any other, the
    systems are only counted by rank (``solution_dims``) and the batch is
    None.  The rows of ``lay.sections`` are c distinct homomorphic
    sections (checked when they are set), so their restrictions (row[b_i])
    lift every map: their solution vectors X must satisfy A X + chi = 0
    mod q, checked in blocks of about _BLOCK entries where there are
    relators, and every system must then be solvable; the places are read
    from the same blocks of X."""
    q = lay.q
    A, chi = build_systems(P, images, lay)
    if not lay.zeta or not P.relators:
        sol = _shared_elimination(P, lay, A).solve(-chi, np.zeros(len(A), dtype=np.intp))
    elif top:
        sol = None
    else:
        sol = solve_systems(A, -chi, q)
    dims = solution_dims(A, -chi, q) if sol is None else np.where(sol.solvable, sol.dims, -1)
    c = len(lay.sections)
    placed = np.empty((c, len(images)), dtype=np.int64) if places else None
    bad = c and (dims < 0).any()
    step = max(1, _BLOCK // max(1, c * A.shape[2]))
    for lo in range(0, len(images) if c and (places or P.relators) else 0, step):
        at = slice(lo, lo + step)
        X = _complement_vectors(lay, images[at])
        bad = bad or (((A[at] @ X[..., None])[..., 0] + chi[at]) % q).any()
        if places:
            placed[:, at] = sol.place(X, at)
    if bad:
        raise CountError("a complement lift is not found among the lifts of its map: "
                         "it does not solve the map's lifting system")
    return sol, dims, placed


def _shared_elimination(P, lay, A=None):
    """The elimination of the one lifting matrix that every map shares
    through ``lay``: the layer acts trivially, so the matrix is the
    abelianized Fox Jacobian tensor I_s mod q, or the source has no
    relators.  It depends only on the source, q and s, and
    ``P.eliminations`` keeps it with its matrix, keyed on (q, s), made on
    first use from the relators' exponent sums.  Its d is then checked:
    Hom(G, Z_q^s) has q^(s (rank + beta_q)) elements by the abelian
    invariants, whose Smith form is over Z.  With the walked matrices
    ``A`` of a level, each is checked against the kept one."""
    q, s = key = (lay.q, lay.s)
    entry = P.eliminations.get(key)
    if entry is None:
        sums = np.array(abelianized_jacobian(P), dtype=np.int64).reshape(len(P.relators), P.n)
        kept = np.kron(sums % q, np.eye(s, dtype=np.int64))
        kept.flags.writeable = False
        elim = eliminate(kept[None], q)
        ab = P.abelian_invariants
        want = s * (ab.rank + ab.beta(q))
        if elim.dims[0] != want:
            raise CountError("the relators' exponent sums give |Hom(G, Z_%d^%d)| = %d^%d, the "
                             "abelian invariants %d^%d" % (q, s, q, elim.dims[0], q, want))
        entry = P.eliminations[key] = (kept, elim)
    if A is not None and (A != entry[0]).any():
        raise CountError("a lifting matrix through a layer with q = %d, s = %d differs from "
                         "the one its source shares among all such maps" % key)
    return entry[1]


def _complement_vectors(lay, images):
    """The solution vectors of the c complement lifts of every map of
    ``images``, the restrictions of ``lay.sections``, as a (c, m, n s)
    array."""
    X = _digit_vectors(lay.q, lay.s)[lay.sections[:, images] // len(lay.base)]
    return X.reshape(*X.shape[:2], X.shape[2] * lay.s)


def _check_cap(size, cap, epi, level):
    if size > cap:
        raise CapExceeded(
            "%s frontier at level %d would reach %d maps, over the cap %d"
            % ("epimorphism" if epi else "homomorphism", level + 1, size, cap)
        )


def _bottom_lifts(P, lay, epi, cap):
    """The lifts of the trivial map through the bottom layer ``lay`` and
    their exponent d, in the shape lift_frontier returns: Hom(G, Z_q^s),
    the homogeneous solutions of the kept elimination
    (``_shared_elimination``) in grid order, less row 0, the zero lift and
    the one complement lift, for Epi.  ``cap`` is compared with their number
    before the grid is expanded."""
    q, s = lay.q, lay.s
    elim = _shared_elimination(P, lay)
    _check_cap(q ** int(elim.dims[0]) - epi, cap, epi, 0)
    lifts = elim.homogeneous(0)[int(epi) :].reshape(-1, P.n, s) @ q ** np.arange(s)
    return lifts.astype(np.int32), elim.dims


def _weight_per_dim(dims, weights):
    """The total weight of the maps with each exponent d of ``dims``, as
    pairs (d, total) of Python ints, d None for the maps that do not lift
    (d = -1 in ``dims``)."""
    tot = np.bincount(dims + 1, weights=weights)
    if tot.sum() >= 1 << 53:  # past exact float sums
        tot = np.zeros(len(tot), dtype=np.int64)
        np.add.at(tot, dims + 1, weights)
    return [(d if d >= 0 else None, int(w)) for d, w in enumerate(tot.tolist(), -1) if w]


def _orbit_representatives(group, rows):
    """The distinct least images of the distinct ``rows`` (as lift_frontier
    returns them) under the PermutationGroup ``group`` (acting on every
    entry), row-sorted, and the size of each one's orbit.  The trivial
    group leaves every row as it is, in its order.

    The least image is taken greedily down the group's stabiliser chain:
    at node H, a row's entry j goes to the least point p of its orbit
    under H, by an element of H that moves the whole row, and the row
    steps down to the stabiliser of p in H.  The row's orbit then has the
    product of the orbit lengths it passed as its size (orbit-stabiliser:
    the last node is the stabiliser of the least image).  Rows move as
    int32 blocks of about _BLOCK entries, and the least images are
    deduplicated as packed int64 keys (``_distinct_rows``)."""
    m, n = rows.shape
    if len(group) == 1 or not m:
        return rows, np.ones(m, dtype=np.int64)
    flat = group.rows.ravel()
    least = rows.copy()
    weights = np.ones(m, dtype=np.int64)
    step = max(1, _BLOCK // n)
    for lo in range(0, m, step):
        moved, w = least[lo : lo + step], weights[lo : lo + step]
        node = np.zeros(len(moved), dtype=np.int64)
        for j in range(n):
            x = moved[:, j]
            w *= group.length[node, x]
            moved[:, j:] = flat[group.carry[node, x][:, None] + moved[:, j:]]
            if j < n - 1:
                node = group.descend(node, moved[:, j])
    order, new = _distinct_rows(least, group.rows.shape[1])
    kept = order[new]
    return least[kept], weights[kept]


def _count_top(P, lay, reps):
    """The exponent d of the q^d lifts of each representative through the
    top layer, -1 where a map does not lift, as an int64 array: each
    system counted, not solved (``_solve_level`` at the top, with its
    checks of the complement lifts), and nothing more.  The representatives are taken
    in blocks, so that no array of a block passes about _BLOCK entries."""
    R, C = len(P.relators) * lay.s, P.n * lay.s
    dims = np.empty(len(reps), dtype=np.int64)
    step = max(1, _BLOCK // ((R + C) * (C + R + 1)))
    for lo in range(0, len(reps), step):
        dims[lo : lo + step] = _solve_level(P, lay, reps[lo : lo + step], top=True)[1]
    return dims


def _closed_form_lifts(lay, d, epi):
    """Lifts of one map through ``lay`` by the paper's formula: q^d, or
    E^zeta (q^(d - s zeta) - split) surjective ones with ``epi``."""
    q = lay.q
    if not epi:
        return q**d if d is not None else 0
    split = lay.c_chi * q ** (lay.kappa * (lay.alpha - 1))
    return (lay.E**lay.zeta) * ((q ** (d - lay.s * lay.zeta) if d is not None else 0) - split)


def _orbit_levels(P, tower, epi, cap=DEFAULT_FRONTIER_CAP):
    """Lift one representative per orbit through every layer below the top
    and count the top layer.  The group acting on the maps into level i is
    ``tower.orbit_group(i)``, a PermutationGroup of B_i.  Yields,
    per layer i, (i + 1, reps, weights, maps_in, maps_out): the level-(i + 1)
    representatives and their orbit sizes (both None at the top, which is
    counted and not built) and the weighted map counts below and above the
    layer.

    Self-checks: the weighted closed-form count of each layer equals the
    weighted count above it; with ``epi`` every orbit has the size of the
    acting group, which acts freely on epimorphisms, and without it every
    orbit size divides that order; on every level the complement lifts of
    every map solve its system (``_solve_level``), and with ``epi`` every
    map below the top has c distinct complement places among its q^d
    lifts, so it keeps q^d - c once they are dropped; the bottom level
    builds no system (``_bottom_lifts``), and its matrix is checked where
    its source's elimination is made (``_shared_elimination``).  Once
    a level has no representative, every layer above it yields maps_out = 0
    without building or solving anything."""
    reps = np.zeros((1, P.n), dtype=np.int32)
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
            if i:
                lifts, dims = lift_frontier(P, lay, reps, epi, cap=cap, level=i)
            else:
                lifts, dims = _bottom_lifts(P, lay, epi, cap)
            acting = tower.orbit_group(i + 1)
            new_reps, new_weights = _orbit_representatives(acting, lifts)
            del lifts
            maps_out = int(new_weights.sum())
            if epi and (new_weights != len(acting)).any():
                raise CountError("an epimorphism orbit at level %d has a size other than "
                                 "|A_i| = %d, the order of the acting group"
                                 % (i + 1, len(acting)))
            per_dim = _weight_per_dim(dims, weights)
        else:
            dims = _count_top(P, lay, reps) if i else _shared_elimination(P, lay).dims
            per_dim = _weight_per_dim(dims, weights)
            new_reps = new_weights = None
            c = lay.complements if epi else 0
            maps_out = sum(w * (lay.q**d - c) for d, w in per_dim if d is not None)
        closed = sum(w * _closed_form_lifts(lay, d, epi) for d, w in per_dim)
        if closed != maps_out:
            raise CountError(
                "level arithmetic %d disagrees with the orbit-weighted tally %d "
                "at level %d" % (closed, maps_out, i + 1)
            )
        if not epi and i < top and (len(acting) % new_weights).any():
            raise CountError("a homomorphism orbit at level %d has a size that does not "
                             "divide |A_i| = %d, the order of the acting group"
                             % (i + 1, len(acting)))
        yield i + 1, new_reps, new_weights, maps_in, maps_out
        reps, weights, maps_in = new_reps, new_weights, maps_out


def hom_count(P, tower, cap=DEFAULT_FRONTIER_CAP):
    """|Hom|, lifting one map per orbit of the tower's acting groups
    (``ExtensionTower.orbit_group``) and counting the top layer."""
    count = 1
    for *_, count in _orbit_levels(P, tower, epi=False, cap=cap):
        pass
    return count


def epi_count(P, tower, cap=DEFAULT_FRONTIER_CAP, with_aut=True):
    """|Epi|, lifting one epimorphism per orbit of the tower's acting
    groups (``ExtensionTower.orbit_group``) and counting the top layer.
    ``with_aut`` decides only whether |Aut| is computed, by the full
    generator-image search of ``aut_order``, run first; it must divide
    |Epi|, and delta is |Epi| / |Aut|."""
    aut = dlt = None
    if with_aut:
        aut = aut_order(tower.group)
    level_epi = tuple(out for *_, out in _orbit_levels(P, tower, epi=True, cap=cap))
    epi = level_epi[-1] if level_epi else 1
    if with_aut:
        if epi % aut:
            raise CountError("epimorphism count %d is not divisible by |Aut|=%d" % (epi, aut))
        dlt = epi // aut
    return CountReport(tower, epi, aut, dlt, level_epi)


def delta(P, tower, cap=DEFAULT_FRONTIER_CAP):
    """Number of normal subgroups with quotient isomorphic to the tower
    group: |Epi|/|Aut|, an exact integer."""
    return epi_count(P, tower, cap=cap).delta


# ---------------------------------------------------------------------------
# |Aut| through the lifting engine: |Aut B| = |Epi(pres(B), B)| for the
# power-conjugate presentation of the tower group, an independent check on
# the generator-image search of ``aut_order``.


def aut_order_by_lifting(tower):
    """|Aut| = |Epi(G, G)| counted by the same recursion that counts
    epimorphisms, with the group's power-conjugate presentation as source.
    It lifts modulo the series automorphisms A and still checks
    ``aut_order``: A's rows come from the restricted search, not the full
    one, checked as automorphisms, and any group of them gives the exact
    |Epi|; a row set that is not a group trips the orbit-size or level
    arithmetic self-checks.  It reaches Z(2)^5, where the full search is
    refused."""
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
