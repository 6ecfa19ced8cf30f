"""The independent reference routes the tests compare the library with.

Nothing under src/solvquot imports this module.  It keeps the per-map
Python routes and the helpers that only the tests call:

* linear algebra over Z_{q^r} (``solve_mod_prime_power``,
  ``ModSolveResult``): row reduction pivoting on the entry of least
  q-valuation, whose solutions are read off a diagonal system; the
  reference for the batched Z_q elimination (``solve_systems``) and for
  the Smith normal form rank of ``intertwiner_space_dim``;
* |Z^1| of a presented group acting on a finite abelian group, each prime
  part homocyclic (``TwistedAction``, ``PrimeBlock``,
  ``twisted_z1_count``): its own relator walk with a running prefix
  matrix, solved over Z_{q^r};
* the lifting system of one map (``build_system``, ``CocycleSystem``,
  ``solve_system``): a walk of each relator in Python, the reference for
  ``build_systems``, which the counts and the ``cocycle`` verb use;
* every level's epimorphisms enumerated (``epi_maps``), one
  ``lift_frontier`` pass per layer, against which the counted path is
  checked level by level;
* the one-layer Hall invariants (``table1_delta``, ``delta_s4``,
  ``dihedral_prime_delta``): each target is a single elementary layer,
  built by hand here, over a small base onto which the epimorphisms are
  enumerated directly, and each map's system is built and solved one at a
  time (``build_system``, ``solve_mod_prime_power``);
* the coordinate-layer drivers (``epi_count_q2p``,
  ``epi_dihedral_recursive``, ``epi_binary_dihedral_recursive``), which
  lift through dihedral and binary dihedral groups built directly on
  coordinates with the textbook cocycle formulas rather than on the
  extracted towers;
* the per-map helpers they use: ``LayerAction``, ``solution_vectors``,
  ``homogeneous_count``, ``epsilon_and_witness``, ``fixed_subspace_dim``
  and ``h1_dim``;
* tower arithmetic by the layer formulas (``mul_structural``,
  ``inv_structural``, ``GroupElement``), one element at a time, with a
  kernel element's digits (``kernel_vector``, ``kernel_number``) computed
  here rather than read from the layer;
* the lifts of every map onto a layer's base (``lifts_by_base_map``),
  read off the oracle's walk of the extension's own table;
* the generator-image search without its prefix pruning
  (``homomorphism_rows_unpruned``), which tries every candidate tuple,
  and all homomorphisms between two tables by it (``homomorphism_rows``);
* the evidence by formula: the closed forms for the classical families
  (``closed_form_eulerian``, ``closed_form_delta``), the complement count
  of a level three ways (``complement_count``: the sections, c_chi |Z^1|
  of the level group's presentation, and Gaschuetz's formula), and the
  identities over a subgroup lattice (``eulerian_via_moebius``, and
  ``hall_identities``, which sums the engine's counts over every
  subgroup);
* small helpers: the evaluation of a free-group-ring element under a
  twisted action (``evaluate_ring_element``), the torsion order of
  abelian invariants (``torsion_order``), inclusion between the subgroups of a
  lattice (``leq``), relabelling a table (``relabel``), the isomorphisms
  between two tables by the library's generator-image search
  (``iter_isomorphisms``), one of them (``find_isomorphism``) and an
  isomorphism test (``is_isomorphic``);
* Inn(B_i) as an acting group (``conjugation_orbit_groups``), which the
  tests put in place of a tower's ``orbit_group`` to compare the counts
  modulo conjugation with those modulo the series automorphisms.
* the properties of a multiplication table by per-element loops, one
  product at a time (``element_orders``, ``inverses``, ``closure_walk``,
  ``expressions_walk``, ``derived_subgroup_walk``, ``subtable_walk``,
  ``centre_walk``, ``is_nilpotent_walk``, ``is_associative_walk``), the
  references for ``FiniteGroupTable``'s array passes and for
  ``bfs_expressions``, and a table of A(5) (``alternating5_table``) to run
  them on a group that is not solvable.

Their per-map steps share nothing with the batched kernel
(``build_systems``, ``solve_systems``, ``solution_arrays``,
``lift_frontier``): ``solve_mod_prime_power`` enumerates its solutions on
its own.  ``epi_maps`` is the exception: it runs the kernel on every map
rather than on one representative per orbit, so it checks the orbit
reduction and the counted top layer, not the kernel.  ``epi_count_q2p`` takes the epimorphisms onto the level below
the top from ``enumerate_epis_to_table`` on that level's group, a walk of
every image tuple, so it checks every level.  The dihedral and binary
dihedral recursions start from the epimorphisms onto Z_2 and lift every
map themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from solvquot.counting import (
    DEFAULT_FRONTIER_CAP,
    CountError,
    epi_count,
    hom_count,
    lift_frontier,
)
from solvquot.groups import (
    BIJECTIVE_TUPLE_CAP,
    CapExceeded,
    ExtensionTower,
    FiniteGroupTable,
    PermutationGroup,
    _homomorphism_blocks,
    _metacyclic_data,
    bfs_expressions,
    builtin_group,
    chief_series,
    eval_word_in_table,
    generating_sequence,
    table_from_coords,
)
from solvquot.lattice import all_subgroups, moebius
from solvquot.oracle import brute_hom_images
from solvquot.presentations import factorize


def invmod(a, m):
    return pow(a, -1, m)


def _valuation(x, q, r):
    if x % (q**r) == 0:
        return r
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


# ---------------------------------------------------------------------------
# Solving A x = b over Z_{q^r}.
#
# Row reduction with pivoting on the entry of minimal q-valuation; the pivot
# is normalized to q^v by a unit, rows below are cleared, and the rest of the
# pivot row is cleared by column operations recorded in a substitution matrix
# C (x = C y).  The result is a diagonal system q^{v_t} y_t = c_t whose
# solution set is read off directly.


@dataclass
class ModSolveResult:
    q: int
    r: int
    ncols: int
    solvable: bool
    pivot_vals: tuple
    _C: tuple = field(repr=False)
    _y0: tuple = field(repr=False)

    @property
    def modulus(self):
        return self.q**self.r

    @property
    def count_exponent(self):
        """log_q of the number of solutions of the homogeneous system."""
        free = self.ncols - len(self.pivot_vals)
        return sum(self.pivot_vals) + self.r * free

    @property
    def witness(self):
        if not self.solvable:
            return None
        return self._apply(self._y0)

    def _apply(self, y):
        M = self.modulus
        return tuple(sum(c * yy for c, yy in zip(row, y)) % M for row in self._C)

    def solutions(self):
        """All solutions of A x = b as tuples: x = C (y0 + k * q^r / radix)
        mod q^r, with k over the mixed-radix grid of the radices (q^v for a
        pivot of valuation v, q^r for a free unknown), first unknown
        slowest."""
        if not self.solvable:
            return
        M = self.modulus
        radix = [self.q**v for v in self.pivot_vals] + [M] * (self.ncols - len(self.pivot_vals))
        for k in itertools.product(*map(range, radix)):
            yield self._apply([y + kk * (M // rad) for y, kk, rad in zip(self._y0, k, radix)])

    def solution_array(self):
        """The rows of ``solutions`` as one (count, ncols) int64 array."""
        return np.array(list(self.solutions()), dtype=np.int64).reshape(-1, self.ncols)


def solve_mod_prime_power(rows, rhs, ncols, q, r=1):
    """Solve ``rows . x = rhs`` over Z_{q**r}; ``rhs=None`` means the
    homogeneous system."""
    M = q**r
    A = [[x % M for x in row] for row in rows]
    b = [x % M for x in rhs] if rhs is not None else [0] * len(A)
    nrows = len(A)
    C = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    pivot_vals = []
    t = 0
    while t < nrows and t < ncols:
        best = None
        for i in range(t, nrows):
            Ai = A[i]
            for j in range(t, ncols):
                x = Ai[j]
                if x:
                    v = _valuation(x, q, r)
                    if best is None or v < best[0]:
                        best = (v, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        b[t], b[bi] = b[bi], b[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
            for row in C:
                row[t], row[bj] = row[bj], row[t]
        qv = q**v
        u = invmod((A[t][t] // qv) % M, M)
        A[t] = [(x * u) % M for x in A[t]]
        b[t] = (b[t] * u) % M
        for i in range(t + 1, nrows):
            x = A[i][t]
            if x:
                f = x // qv
                A[i] = [(a - f * p) % M for a, p in zip(A[i], A[t])]
                b[i] = (b[i] - f * b[t]) % M
        for j in range(t + 1, ncols):
            x = A[t][j]
            if x:
                f = x // qv
                for row in A:
                    row[j] = (row[j] - f * row[t]) % M
                for row in C:
                    row[j] = (row[j] - f * row[t]) % M
        pivot_vals.append(v)
        t += 1
    solvable = all(b[i] % M == 0 for i in range(t, nrows))
    y0 = [0] * ncols
    for k, v in enumerate(pivot_vals):
        if b[k] % (q**v):
            solvable = False
            break
        y0[k] = (b[k] // (q**v)) % M
    return ModSolveResult(
        q, r, ncols, solvable, tuple(pivot_vals), tuple(tuple(r_) for r_ in C), tuple(y0)
    )


# ---------------------------------------------------------------------------
# Twisted actions on a finite abelian group, split by prime.


def _mat_id(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(A, B, M):
    """The product of two tuple matrices mod M."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % M for col in zip(*B))
                 for row in A)


def _mat_inverse(mat, q, r):
    """Inverse of a matrix over Z_{q^r}; None if singular."""
    n = len(mat)
    cols = []
    for k in range(n):
        rhs = [int(i == k) for i in range(n)]
        res = solve_mod_prime_power([list(row) for row in mat], rhs, n, q, r)
        if not res.solvable or res.count_exponent != 0:
            return None
        cols.append(res.witness)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass
class PrimeBlock:
    q: int
    exps: tuple  # per-coordinate exponents, all equal
    mats: tuple  # one matrix per source generator
    inv_mats: tuple

    @property
    def modulus(self):
        return self.q ** max(self.exps)


class TwistedAction:
    """Action of source generators on a finite abelian group given as a list
    of cyclic factors; stored per prime.  Each prime's part must be
    homocyclic, Z_{q^r}^s: the factors [2, 4] are rejected."""

    def __init__(self, factors, gen_matrices):
        self.factors = tuple(factors)
        self.n_gens = len(gen_matrices)
        self.blocks = {}
        parts = [factorize(f) for f in self.factors]
        for q in sorted(set().union(*parts)):
            idx = [j for j, part in enumerate(parts) if q in part]
            exps = [parts[j][q] for j in idx]
            if len(set(exps)) > 1:
                raise ValueError("the %d-part of %r is not homocyclic" % (q, self.factors))
            R = exps[0]
            M = q**R
            mats = tuple(
                tuple(tuple(mat[i][j] % M for j in idx) for i in idx) for mat in gen_matrices
            )
            invs = []
            for mat in mats:
                inv = _mat_inverse(mat, q, R)
                if inv is None:
                    raise ValueError("generator action is not invertible mod %d" % M)
                invs.append(inv)
            self.blocks[q] = PrimeBlock(q, tuple(exps), mats, tuple(invs))


def twisted_z1_count(P, action):
    """|Z^1| of the source acting on a finite abelian group: the twisted
    derivative systems are solved per prime and the counts multiplied.  The
    Fox Jacobian is expanded in one walk per relator, as in
    ``build_systems``, with a running prefix matrix."""
    total = 1
    for q in sorted(action.blocks):
        blk = action.blocks[q]
        dim = len(blk.exps)
        M = blk.modulus
        rows = []
        for rel in P.relators:
            acc = [[[0] * dim for _ in range(dim)] for _ in range(P.n)]
            mat = _mat_id(dim)
            for g, e in rel:
                if e == -1:
                    mat = _mat_mul(mat, blk.inv_mats[g], M)
                for a in range(dim):
                    for b in range(dim):
                        acc[g][a][b] = (acc[g][a][b] + e * mat[a][b]) % M
                if e == 1:
                    mat = _mat_mul(mat, blk.mats[g], M)
            for a in range(dim):
                row = []
                for i in range(P.n):
                    row.extend(acc[i][a])
                rows.append(row)
        res = solve_mod_prime_power(rows, None, P.n * dim, q, blk.exps[0])
        total *= q**res.count_exponent
    return total


# ---------------------------------------------------------------------------
# Per-map lifting systems: the layer data, one map's system, and its
# solutions and dimensions.


@dataclass
class LayerAction:
    """Minimal coefficient data for one elementary abelian extension layer,
    kept as the read-only int64 arrays a built layer holds: sigma
    (|base|, s, s) and chi (|base|, |base|, s), zero when not given."""

    q: int
    s: int
    base: object  # FiniteGroupTable
    sigma: list  # per base element: s x s matrix mod q
    chi: list = None  # per pair of base elements: vector mod q; None = zero

    def __post_init__(self):
        nB, s = len(self.base), self.s
        self.sigma = np.array(self.sigma, dtype=np.int64).reshape(nB, s, s)
        if self.chi is None:
            self.chi = np.zeros((nB, nB, s), dtype=np.int64)
        self.chi = np.array(self.chi, dtype=np.int64).reshape(nB, nB, s)
        self.sigma.flags.writeable = self.chi.flags.writeable = False


@dataclass
class CocycleSystem:
    q: int
    s: int
    n_gens: int
    n_rels: int
    matrix: list  # (n_rels*s) x (n_gens*s) over Z_q
    chi_vec: list  # length n_rels*s; solutions solve  matrix . a = -chi_vec


def build_system(P, images, layer, check=True):
    """The lifting system of one map, by a left-to-right walk of each
    relator in Python: a letter x_g adds +sigma(prefix) to block (k, g),
    a letter x_g^-1 adds -sigma(prefix after the letter), and the chi terms
    share the same prefix (see the comment on the lifting system in
    ``solvquot.cohomology``).  With ``check`` the final prefix of every
    relator must be the identity."""
    q, s = layer.q, layer.s
    mul, inv = layer.base.mul, layer.base.inv
    sigma, chi = layer.sigma.tolist(), layer.chi.tolist()
    n, m = P.n, len(P.relators)
    rows = [[0] * (n * s) for _ in range(m * s)]
    chi_vec = [0] * (m * s)
    for k, rel in enumerate(P.relators):
        block = rows[k * s : (k + 1) * s]
        acc = [0] * s
        prefix = 0
        for idx, (g, e) in enumerate(rel):
            li = images[g] if e == 1 else inv[images[g]]
            after = mul[prefix, li]
            sig = sigma[prefix if e == 1 else after]
            for a in range(s):
                row, sa = block[a], sig[a]
                for b in range(s):
                    row[g * s + b] += e * sa[b]
            if idx > 0:
                vec = chi[prefix][li]
                for a in range(s):
                    acc[a] += vec[a]
            if e == -1:
                sig = sigma[prefix]
                vec = chi[li][images[g]]
                for a in range(s):
                    acc[a] -= sum(sig[a][b] * vec[b] for b in range(s))
            prefix = after
        if check and prefix != 0:
            raise ValueError("images do not satisfy the relators")
        for a in range(s):
            block[a][:] = [x % q for x in block[a]]
            chi_vec[k * s + a] = acc[a] % q
    return CocycleSystem(q, s, n, m, rows, chi_vec)


def solve_system(sys):
    rhs = [(-x) % sys.q for x in sys.chi_vec]
    return solve_mod_prime_power(sys.matrix, rhs, sys.n_gens * sys.s, sys.q, 1)


def homogeneous_count(sys):
    """log_q of the number of solutions of the homogeneous system."""
    return solve_system(sys).count_exponent


def epsilon_and_witness(sys):
    res = solve_system(sys)
    if not res.solvable:
        return 0, None
    w = res.witness
    return 1, tuple(tuple(w[i * sys.s : (i + 1) * sys.s]) for i in range(sys.n_gens))


def solution_vectors(sys, result=None):
    """All solutions, each a tuple of n_gens vectors in Z_q^s."""
    res = result if result is not None else solve_system(sys)
    s = sys.s
    for x in res.solutions():
        yield tuple(tuple(x[i * s : (i + 1) * s]) for i in range(sys.n_gens))


def fixed_subspace_dim(layer, images):
    """Dimension of the simultaneous fixed space of the generator actions."""
    q, s = layer.q, layer.s
    rows = []
    for img in images:
        sig = layer.sigma[img].tolist()
        for a in range(s):
            rows.append([(sig[a][b] - (1 if a == b else 0)) % q for b in range(s)])
    return solve_mod_prime_power(rows, None, s, q, 1).count_exponent


def h1_dim(P, images, layer, d=None):
    """dim H^1 of the source acting through the layer: the coboundary space
    has dimension s - dim(fixed subspace of the image action)."""
    if d is None:
        d = homogeneous_count(build_system(P, images, layer))
    return d - (layer.s - fixed_subspace_dim(layer, images))


# ---------------------------------------------------------------------------
# Every level's epimorphisms, enumerated.


def epi_maps(P, tower, cap=10**7):
    """The epimorphisms onto every level group, level 1 first, each level's
    as the row-sorted int32 array of their image rows: one
    ``lift_frontier`` pass per layer, every map enumerated."""
    frontier = np.zeros((1, P.n), dtype=np.int32)
    out = []
    for i, lay in enumerate(tower.layers):
        frontier, _ = lift_frontier(P, lay, frontier, epi=True, cap=cap, level=i)
        out.append(frontier[np.lexsort(frontier.T[::-1])])
    return out


# ---------------------------------------------------------------------------
# Targets Z_q^2 x| D_2p: the lifting step has epsilon = 1 (split) and
# subtracts exactly one complement class per epimorphism downstairs.


def epi_count_q2p(P, q, p, r):
    """q^2 sum over Epi(G, D_2p) of (q^beta - 1); must agree with the full
    engine on the corresponding tower."""
    tower = builtin_group("V(%d,%d,%d)" % (q, p, r))
    top = len(tower.layers)
    lay = tower.layers[-1]
    total = 0
    for images in enumerate_epis_to_table(P, tower.level_group(top - 1)):
        beta = h1_dim(P, images, lay)
        total += q**beta - 1
    return q**2 * total


# ---------------------------------------------------------------------------
# Alternate drivers for dihedral and binary dihedral targets, built directly
# on coordinate groups with the textbook cocycle formulas rather than on the
# extracted towers.


def _dihedral_coord_table(l):
    return _metacyclic_data(l, 2, l - 1)[0]


def _binary_dihedral_coord_table(L):
    # order 2L with rotation part Z_L; b^2 = a^{L/2}
    return _metacyclic_data(L, 2, L - 1, L // 2)[0]


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
    return table_from_coords(
        (q,) * s, lambda a, b: tuple((x + y) % q for x, y in zip(a, b)), name="Z%d^%d" % (q, s)
    )


def _cyclic_table(n):
    return _metacyclic_data(n, 1, 1)[0]


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
    # Z_2^2 under S_3 in dihedral coordinates (v*3 + w), split: the rotation
    # w acts by B^w and the reflection v by C
    base = _dihedral_coord_table(3)
    B, C = ((1, 1), (1, 0)), ((0, 1), (1, 0))
    rot = [_mat_id(2), B, _mat_mul(B, B, 2)]
    sigma = rot + [_mat_mul(M, C, 2) for M in rot]
    return LayerAction(2, 2, base, sigma, None)


def _a4_top_layer():
    base = _cyclic_table(3)
    R = ((0, 1), (1, 1))
    sigma = [_mat_id(2), R, _mat_mul(R, R, 2)]
    return LayerAction(2, 2, base, sigma, None)


def _count_with_layer(P, base, lay, term):
    """Sum term(epsilon, d, beta) over all epimorphisms of P onto the base
    of the layer."""
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


# ---------------------------------------------------------------------------
# Tower arithmetic by the layer formulas, one element at a time, against
# which the tests check the multiplication tables the towers build.  A layer
# numbers its kernel element v as sum v[k] q^k.


def kernel_vector(lay, e):
    """The digit vector of the kernel element numbered e."""
    return tuple(e // lay.q**k % lay.q for k in range(lay.s))


def kernel_number(lay, vec):
    """The number of the kernel element with digits ``vec`` (taken mod q)."""
    return sum(x % lay.q * lay.q**k for k, x in enumerate(vec))


def layer_enc(lay, e, b):
    """The extension element (kernel element numbered e, base element b),
    numbered e * |base| + b."""
    return e * len(lay.base) + b


def layer_dec(lay, idx):
    """The (kernel number, base element) pair of the extension element idx."""
    return divmod(idx, len(lay.base))


def lifts_by_base_map(P, lay):
    """Every homomorphism from P to the extension ``lay.group``, found by
    the oracle's walk of its table, grouped by the map onto the base it
    lifts: base images -> the set of tuples of the generators' kernel digit
    vectors."""
    out = {}
    for images in brute_hom_images(P, lay.group):
        pairs = [layer_dec(lay, x) for x in images]
        out.setdefault(tuple(b for _, b in pairs), set()).add(
            tuple(kernel_vector(lay, e) for e, _ in pairs))
    return out


def _apply_sigma(lay, b, vec):
    sig = lay.sigma[b].tolist()
    return tuple(sum(sig[a][c] * vec[c] for c in range(lay.s)) % lay.q for a in range(lay.s))


def element_vectors(tower, idx):
    """Per-layer kernel coordinates of a top-group element, bottom layer
    first."""
    out = []
    for lay in reversed(tower.layers):
        e, idx = layer_dec(lay, idx)
        out.append(kernel_vector(lay, e))
    return tuple(reversed(out))


def mul_structural(tower, x, y):
    """Product computed by the layer formula rather than the table."""
    return _structural_mul(tower.layers, x, y)


def inv_structural(tower, x):
    """Inverse by the pair formula (-sigma_{b^-1} a - chi(b^-1, b), b^-1)."""
    return _structural_inv(tower.layers, x)


def _structural_mul(layers, x, y):
    if not layers:
        return 0
    lay = layers[-1]
    e1, b1 = layer_dec(lay, x)
    e2, b2 = layer_dec(lay, y)
    v = tuple(
        a + b + c
        for a, b, c in zip(
            kernel_vector(lay, e1), _apply_sigma(lay, b1, kernel_vector(lay, e2)),
            lay.chi[b1, b2].tolist()
        )
    )
    return layer_enc(lay, kernel_number(lay, v), _structural_mul(layers[:-1], b1, b2))


def _structural_inv(layers, x):
    if not layers:
        return 0
    lay = layers[-1]
    e, b = layer_dec(lay, x)
    binv = lay.base.inv[b]
    v = _apply_sigma(lay, binv, kernel_vector(lay, e))
    v = tuple(-a - c for a, c in zip(v, lay.chi[binv, b].tolist()))
    return layer_enc(lay, kernel_number(lay, v), _structural_inv(layers[:-1], b))


@dataclass
class GroupElement:
    """Element of an extension tower, as per-layer kernel coordinates."""

    tower: ExtensionTower
    index: int

    @property
    def vectors(self):
        return element_vectors(self.tower, self.index)

    def __mul__(self, other):
        if other.tower is not self.tower:
            raise ValueError("elements from different towers")
        return GroupElement(self.tower, mul_structural(self.tower, self.index, other.index))

    def inverse(self):
        return GroupElement(self.tower, inv_structural(self.tower, self.index))


# ---------------------------------------------------------------------------
# Multiplication-table properties one product at a time, the references for
# the array passes of ``FiniteGroupTable`` and for ``bfs_expressions``, which
# reads the products by the generators off the table once.


def element_orders(table):
    """The order of every element, its powers x, x^2, ... walked until 1."""
    out = []
    for x in range(table.n):
        y, k = x, 1
        while y != 0:
            y, k = table.mul[y, x], k + 1
        out.append(k)
    return out


def inverses(table):
    """The inverse of every element: the first b in its row with a b = 1,
    which must also have b a = 1."""
    out = []
    for a in range(table.n):
        b = next(b for b in range(table.n) if table.mul[a, b] == 0)
        assert table.mul[b, a] == 0, a
        out.append(b)
    return out


def expressions_walk(table, gens):
    """Breadth-first expressions (elem, parent, genpos) in discovery order:
    each element found, in order, times each generator, in order, and the
    products not found before."""
    links, seen, frontier = [], {0}, [0]
    while frontier:
        new = []
        for x in frontier:
            for gp, g in enumerate(gens):
                y = int(table.mul[x, g])
                if y not in seen:
                    seen.add(y)
                    links.append((y, x, gp))
                    new.append(y)
        frontier = new
    return links


def closure_walk(table, gens):
    """The subgroup the generators generate, by ``expressions_walk``."""
    return frozenset([0] + [y for y, _, _ in expressions_walk(table, gens)])


def derived_subgroup_walk(table, elems=None):
    """The closure of the commutators a^-1 b^-1 a b of all pairs of
    ``elems`` (default: the whole group)."""
    elems = range(table.n) if elems is None else sorted(elems)
    mul, inv = table.mul, table.inv
    comms = {int(mul[mul[inv[a], inv[b]], mul[a, b]]) for a in elems for b in elems}
    return closure_walk(table, sorted(comms))


def subtable_walk(table, elems):
    """The multiplication array of a subgroup, its elements numbered in
    increasing order, one entry at a time."""
    sub = sorted(elems)
    pos = {x: i for i, x in enumerate(sub)}
    out = np.empty((len(sub), len(sub)), dtype=np.int64)
    for i, a in enumerate(sub):
        for j, b in enumerate(sub):
            out[i, j] = pos[int(table.mul[a, b])]
    return out


def centre_walk(table):
    """The elements that commute with every element."""
    n, mul = table.n, table.mul
    return frozenset(z for z in range(n) if all(mul[z, g] == mul[g, z] for g in range(n)))


def is_nilpotent_walk(table):
    """Whether the upper central series reaches the group: Z_0 = 1 and
    Z_{i+1} holds the x whose commutator with every element lies in Z_i."""
    n, mul, inv = table.n, table.mul, table.inv
    centre = {0}
    while len(centre) < n:
        above = {x for x in range(n)
                 if all(int(mul[mul[inv[x], inv[g]], mul[x, g]]) in centre for g in range(n))}
        if above == centre:
            return False
        centre = above
    return True


def is_associative_walk(table):
    """(a b) c = a (b c) on every triple for order <= 64, above on 20000
    random triples drawn from ``random.Random(0)``."""
    n, mul = table.n, table.mul
    if n <= 64:
        triples = itertools.product(range(n), repeat=3)
    else:
        draw = random.Random(0).randrange
        triples = ((draw(n), draw(n), draw(n)) for _ in range(20000))
    return all(mul[mul[a, b], c] == mul[a, mul[b, c]] for a, b, c in triples)


def alternating5_table():
    """A(5) as the even permutations of 5 points, in lexicographic order,
    composed as maps: the product p q is x -> p[q[x]]."""
    even = [p for p in itertools.permutations(range(5))
            if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    perms = np.array(even)
    codes = perms @ 5 ** np.arange(4, -1, -1)
    index = np.full(5**5, -1)
    index[codes] = np.arange(len(even))
    return FiniteGroupTable(index[perms[:, perms] @ 5 ** np.arange(4, -1, -1)], name="A(5)")


# ---------------------------------------------------------------------------
# The generator-image search without pruning: every candidate tuple is
# filled along the breadth-first expressions and checked, in blocks.


def homomorphism_rows_unpruned(src, gens, dst, cands):
    """The homomorphisms src -> dst that send gens[i] into cands[i], as one
    array of image rows in the order of ``itertools.product`` over the
    candidate lists, every tuple tried."""
    links = bfs_expressions(src, gens)
    cands = [np.array(c, dtype=np.int64) for c in cands]
    tuples = math.prod(len(c) for c in cands)
    step = max(1, (1 << 14) // (src.n * max(1, len(gens))))
    out = []
    for lo in range(0, tuples, step):
        idx = np.arange(lo, min(lo + step, tuples))
        images = np.empty((len(idx), len(gens)), dtype=np.int64)
        for gp in range(len(gens) - 1, -1, -1):
            images[:, gp] = cands[gp][idx % len(cands[gp])]
            idx = idx // len(cands[gp])
        f = np.zeros((len(images), src.n), dtype=np.int64)
        for elem, parent, gp in links:
            f[:, elem] = dst.mul[f[:, parent], images[:, gp]]
        ok = (dst.mul[f[:, :, None], f[:, gens][:, None, :]]
              == f[:, src.mul[:, gens]]).all(axis=(1, 2))
        out.append(f[ok])
    return np.concatenate(out)


def homomorphism_rows(src, dst):
    """All homomorphisms src -> dst as image rows, by trying every tuple of
    images of src's generating sequence with orders dividing the
    generators' orders."""
    gens = generating_sequence(src)
    cands = [np.flatnonzero(src.orders[g] % dst.orders == 0) for g in gens]
    return homomorphism_rows_unpruned(src, gens, dst, cands)


# ---------------------------------------------------------------------------
# Conjugation as the acting group of every level.


def conjugation_orbit_groups(tower):
    """A stand-in for ``tower.orbit_group``: per level i >= 1, Inn(B_i) as
    the PermutationGroup of the distinct rows of B_i's conjugation table,
    built once per level."""
    return functools.cache(lambda level: PermutationGroup(
        np.unique(tower.level_group(level).conj, axis=0)))


# ---------------------------------------------------------------------------
# Evidence by formula: closed forms for the classical families (exact
# integer arithmetic), the complement count three ways and the Hall and
# Moebius identities over the subgroup lattice.


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


def complement_count(tower, level):
    """Number of complements of the level's kernel, cross-checked three ways:
    direct section search, c_chi * |Z^1| of the base (from its power-conjugate
    presentation) and the Gaschuetz complement formula
    c_chi |E|^zeta q^{kappa(alpha-1)}."""
    lay = tower.layers[level]
    direct = lay.complements
    action = TwistedAction([lay.q] * lay.s, lay.sigma[tower.level_gens(level)].tolist())
    via_z1 = lay.c_chi * twisted_z1_count(tower.presentation(level), action)
    via_formula = lay.c_chi * (lay.E**lay.zeta) * lay.q ** (lay.kappa * (lay.alpha - 1))
    if not (direct == via_z1 == via_formula):
        raise ArithmeticError(
            "complement count mismatch: direct=%d z1=%d formula=%d"
            % (direct, via_z1, via_formula)
        )
    return direct


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


# ---------------------------------------------------------------------------
# Small helpers that only the tests call.


def evaluate_ring_element(elem, action):
    """Image of a free-group-ring element under a twisted action; one matrix
    per prime of the coefficient group."""
    out = {}
    for q, blk in action.blocks.items():
        M = blk.modulus
        n = len(blk.exps)
        acc = [[0] * n for _ in range(n)]
        for w, c in elem.terms.items():
            mat = _mat_id(n)
            for g, e in w:
                mat = _mat_mul(mat, blk.mats[g] if e == 1 else blk.inv_mats[g], M)
            for i in range(n):
                for j in range(n):
                    acc[i][j] = (acc[i][j] + c * mat[i][j]) % M
        out[q] = tuple(tuple(row) for row in acc)
    return out


def torsion_order(inv):
    """The order of the torsion part of ``AbelianInvariants`` ``inv``."""
    out = 1
    for p, alphas in inv.torsion:
        for i, a in enumerate(alphas):
            out *= p ** ((i + 1) * a)
    return out


def leq(lattice, i, j):
    """Whether subgroup i of a ``SubgroupLattice`` lies in subgroup j."""
    return lattice.masks[i] & ~lattice.masks[j] == 0


def relabel(table, perm):
    """Conjugate the table by a permutation of 1..n-1 (perm[0] must be 0)."""
    back = np.argsort(perm)
    return FiniteGroupTable(back[table.mul[np.ix_(perm, perm)]], name=table.name)


def iter_isomorphisms(src, dst):
    """All isomorphisms src -> dst, groups of one order, as image arrays,
    by the generator-image search (``_homomorphism_blocks``) with each
    generator sent to the elements of its order, in the order of
    ``itertools.product`` over the candidate images.  Raises CapExceeded
    before it starts if it would try more than BIJECTIVE_TUPLE_CAP
    candidate tuples.  A homomorphism is injective when only the identity
    maps to the identity."""
    gens = generating_sequence(src)
    cands = [np.flatnonzero(dst.orders == src.orders[g]) for g in gens]
    tuples = math.prod(len(c) for c in cands)
    if tuples > BIJECTIVE_TUPLE_CAP:
        raise CapExceeded("isomorphism search from a group of order %d would try %d candidate "
                          "image tuples (cap %d)" % (src.n, tuples, BIJECTIVE_TUPLE_CAP))
    for f in _homomorphism_blocks(src, gens, dst, cands):
        yield from f[(f[:, 1:] != 0).all(axis=1)]


def find_isomorphism(t1, t2):
    if t1.n != t2.n:
        return None
    if (np.sort(t1.orders) != np.sort(t2.orders)).any():
        return None
    for f in iter_isomorphisms(t1, t2):
        return f.tolist()
    return None


def is_isomorphic(t1, t2):
    return find_isomorphism(t1, t2) is not None
