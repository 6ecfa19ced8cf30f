"""The lifting systems of homomorphisms through an elementary abelian layer,
assembled from Fox derivatives, and their batched solver over Z_q."""

from __future__ import annotations

import functools

import numpy as np


# ---------------------------------------------------------------------------
# The lifting system of a homomorphism through an elementary abelian layer.
#
# For a presentation with relators r_k and a homomorphism rho into the base
# group of a layer (E = Z_q^s, monodromy sigma, cocycle chi), the lifts of rho
# correspond to solutions (a_1..a_n) in E^n of
#
#   sum_i sigma(rho(dr_k/dx_i)) a_i  +  chi-terms(r_k, rho)  =  0,
#
# where the chi-terms collect one chi(rho(prefix), rho(letter)) per adjacent
# prefix pair and, per inverse letter, the correction
# -sigma(rho(prefix)) chi(rho(x^-1), rho(x)) twisted by the prefix in front
# of the letter (the twist is forced by expanding f(w x^-1) with the cochain
# recursion; it vanishes from sight when the relevant prefixes act
# trivially, as in all central examples).
#
# Both parts come from one left-to-right walk of each relator.  With
# ``prefix`` the image of the letters already read, the Fox derivative rule
# d(u x)/dx = u, d(u x^-1)/dx = -u x^-1 makes a letter x_g add
# +sigma(prefix) to block (k, g), and a letter x_g^-1 add
# -sigma(prefix rho(x_g)^-1), the prefix just after the letter.
#
# ``build_systems`` makes this walk for m maps at once: the counting engine
# builds a whole level with it, and the ``cocycle`` verb prints the system
# of one map.  The prefixes of every letter of every relator
# are one (relators, letters, m) array, filled by a doubling scan of
# log2(longest relator) steps with one multiplication-table gather each.
# Everything a letter adds, its sigma block entries and its chi terms, is
# one row of a per-layer table indexed by (letter kind, prefix, letter), so
# the terms of all letters are one gather, and one matrix product with the
# presentation's letter-to-block array sums them per (relator, generator).
# ``solve_systems`` then eliminates the m systems together mod q, in two
# steps (``eliminate``, ``Elimination.solve``), so that one elimination
# serves every map where they share a matrix: on a layer of trivial action
# each block is the exponent sum of its generator in its relator times
# I_s, the abelianized Fox Jacobian tensor I_s, and only chi varies.


class _LayerTables:
    """A layer's multiplication and the lifting-system terms of one letter,
    as the tables that ``build_systems`` gathers from.  ``letter`` maps
    kind * nB + x (kinds as in ``Presentation.letter_arrays``) to the
    letter's element: x, x^-1 or the identity.  Row
    ((kind * nB) + b) * nB + y of ``terms`` holds what a letter of that
    kind and element y, read after the prefix b, adds to its Fox block
    (s^2 entries) and to its relator's chi vector (s entries):
    +sigma(b) for x, -sigma(b y) for x^-1; chi(b, y), and -sigma(b)
    chi(y, y^-1) for x^-1.  The first letter of a relator reads after the
    identity, and chi(1, y) = 0 on a verified layer (``verify``), so it
    needs no kind of its own.  ``trivial`` tells whether every sigma(b) is
    the identity."""

    def __init__(self, layer):
        q, s = layer.q, layer.s
        self.nB = nB = len(layer.base)
        self.mul = layer.base.as_array()
        ar = np.arange(nB)
        inv = np.array(layer.base.inv, dtype=np.int64)
        self.letter = np.concatenate([ar, inv, np.zeros(nB, dtype=np.int64)])
        sigma = np.array(layer.sigma, dtype=np.int64).reshape(nB, s * s)
        self.trivial = bool((sigma % q == np.eye(s, dtype=np.int64).ravel()).all())
        chi = np.zeros((nB, nB, s), dtype=np.int64)
        if layer.chi is not None:
            chi = np.array(layer.chi, dtype=np.int64).reshape(nB, nB, s)
        back = np.einsum("bij,yj->byi", sigma.reshape(nB, s, s), chi[ar, inv])
        plus = np.broadcast_to(sigma[:, None], (nB, nB, s * s))
        minus = -sigma[self.mul]
        none = np.zeros((nB, nB, s * s + s), dtype=np.int64)
        self.terms = np.concatenate([
            np.concatenate((plus, chi), axis=2), np.concatenate((minus, chi - back), axis=2), none,
        ]).reshape(3 * nB * nB, s * s + s) % q


def _layer_tables(layer):
    """The layer's ``_LayerTables``, built on its first batched system and
    kept on the layer."""
    tables = getattr(layer, "_tables", None)
    if tables is None:
        tables = layer._tables = _LayerTables(layer)
    return tables


# entries per block of a batched array: the per-letter arrays here, the
# canonical-form candidates and the top-layer systems in ``counting``
_BLOCK = 1 << 20


def build_systems(P, images, layer):
    """The lifting systems of m maps at once.  ``images`` is an (m, n) array
    of generator images in the base of ``layer``.  Returns A, an (m, R, C)
    int64 array mod q with R = |relators| s and C = n s, and chi, an (m, R)
    array, such that the lifts of map j are the solutions of
    A[j] a = -chi[j].  The relators are not checked on the images.

    The prefixes come from one scan along the (relators, letters, maps)
    array of letter elements, log2(Lmax) doubling steps of one table gather
    each (step k multiplies each prefix by the one k letters before it).
    Each letter's terms are then one gather from the layer's table, and one
    matrix product with ``letter_arrays.block`` sums them per Fox block."""
    q, s, n = layer.q, layer.s, P.n
    tab = _layer_tables(layer)
    nB = tab.nB
    gen, kind, block = P.letter_arrays
    K, W = gen.shape
    images = np.asarray(images, dtype=np.int64).reshape(-1, n)
    m = len(images)
    A = np.empty((m, K * s, n * s), dtype=np.int64)
    chi = np.empty((m, K * s), dtype=np.int64)
    at = (kind * nB)[:, :, None]
    step = max(1, _BLOCK // max(1, K * W * (s * s + s)))
    for lo in range(0, m, step):
        img = images[lo : lo + step]
        mb = len(img)
        letters = tab.letter[at + img.T[gen]]  # (K, W, mb)
        after = letters.copy()
        k = 1
        while k < W:
            after[:, k:] = tab.mul[after[:, :-k], after[:, k:]]
            k *= 2
        before = np.zeros_like(after)
        before[:, 1:] = after[:, :-1]
        terms = tab.terms[(at + before) * nB + letters]  # (K, W, mb, s*s + s)
        red = (block @ terms.reshape(K, W, mb * (s * s + s))).reshape(K, n, mb, s * s + s)
        A[lo : lo + step] = red[..., : s * s].reshape(K, n, mb, s, s).transpose(
            2, 0, 3, 1, 4).reshape(mb, K * s, n * s)
        chi[lo : lo + step] = red[..., s * s :].sum(axis=1).transpose(1, 0, 2).reshape(mb, K * s)
    return A % q, chi % q


@functools.lru_cache(maxsize=None)
def _inverses(q):
    """Inverses mod the prime q as an array, with 0 for 0."""
    return np.array([0] + [pow(a, -1, q) for a in range(1, q)], dtype=np.int64)


def eliminate(A, q):
    """Gauss-Jordan elimination of [A[j] | I_R] over Z_q, q prime, for
    every j at once; A is (m, R, C).  Row by row, each system takes the
    first nonzero entry of row i of A as its pivot, scales the row to make
    it 1 and clears the pivot's column in every other row; the same row
    operations carry I_R to a row transform.  A row left without a pivot
    is zero in A.  Returns an ``Elimination``: the reduced rows placed by
    pivot column give the free unknowns, those without a pivot, and the
    columns of I - (reduced rows) at them span the homogeneous solutions."""
    m, R, C = A.shape
    eye = np.broadcast_to(np.eye(R, dtype=np.int64), (m, R, R))
    W = np.concatenate([A % q, eye], axis=2)
    inverse = _inverses(q)
    maps = np.arange(m)
    col = np.empty((m, R), dtype=np.int64)
    unit = np.empty((m, R), dtype=np.int64)
    for i in range(R):
        row = W[:, i]
        col[:, i] = p = (row[:, :C] != 0).argmax(axis=1)
        unit[:, i] = u = inverse[row[maps, p]]  # 0 where the row is zero
        piv = row * u[:, None] % q
        W -= W[maps, :, p][:, :, None] * piv[:, None, :]
        W %= q
        W[:, i] += piv  # the pivot row was cleared to zero; a zero row keeps its transform
    which, rows = np.nonzero(unit)
    red = np.zeros((m, C, C + R), dtype=np.int64)
    red[which, col[which, rows]] = W[which, rows]
    return Elimination(
        q,
        T=np.concatenate([red[:, :, C:], W[:, :, C:] * (unit == 0)[:, :, None]], axis=1),
        free=red[:, np.arange(C), np.arange(C)] == 0,
        null=(np.eye(C, dtype=np.int64) - red[:, :, :C]) % q,
    )


class Elimination:
    """The reduced form of m matrices over Z_q, q prime, in C unknowns and R
    rows: ``free`` (m, C) bool, ``dims`` (m,) int64, ``null`` (m, C, C) and
    ``T`` (m, C + R, R) int64.  Row c < C of T[j] reads the reduced
    right-hand side of the row whose pivot is unknown c (zero where c is
    free), and rows C.. read those of the rows with no pivot."""

    def __init__(self, q, T, free, null):
        self.q, self.T, self.free, self.null = q, T, free, null
        self.dims = free.sum(axis=1)

    def solve(self, rhs):
        """The ``SolutionBatch`` of A[j] x = rhs[j] for the (m', R) array
        ``rhs``; an elimination of one matrix serves any m'.  rhs' = T rhs:
        a system is solvable when rhs' is zero on the rows without a pivot,
        and x0 is rhs' at the pivot unknowns."""
        C = self.free.shape[1]
        y = (self.T @ rhs[:, :, None])[..., 0] % self.q
        return SolutionBatch(self, solvable=~y[:, C:].any(axis=1), x0=y[:, :C])

    @functools.cached_property
    def grid(self):
        """The homogeneous solutions of the first matrix as a (q^d, C)
        array, in grid order (first free unknown slowest)."""
        vary = np.flatnonzero(self.free[0])
        d = len(vary)
        y = np.indices((self.q,) * d, dtype=np.int64).reshape(d, self.q**d)
        return (self.null[0][:, vary] @ y).T % self.q


def solve_systems(A, rhs, q):
    """Solve A[j] x = rhs[j] over Z_q, q prime, for every j at once; A is
    (m, R, C) and rhs (m, R): ``eliminate`` then ``Elimination.solve``."""
    return eliminate(A, q).solve(rhs)


class SolutionBatch:
    """The solution sets of m linear systems over Z_q, q prime, in the same
    number of unknowns: ``solvable`` (m,) bool, ``dims`` (m,) int64,
    ``free`` (m, ncols) bool, ``x0`` (m, ncols) and ``null`` (m, ncols,
    ncols) int64.  System j has q^dims[j] homogeneous solutions, and when
    it is solvable its solutions are x = x0[j] + null[j] y mod q, where y
    runs over Z_q on the unknowns ``free[j]`` and is zero elsewhere.
    ``elim`` is the ``Elimination`` they come from; where it holds one
    matrix, every system shares it, and dims, free and null are views of
    its arrays."""

    def __init__(self, elim, solvable, x0):
        m = len(x0)
        self.q, self.elim, self.solvable, self.x0 = elim.q, elim, solvable, x0
        self.dims, self.free, self.null = (
            a if len(a) == m else np.broadcast_to(a, (m,) + a.shape[1:])
            for a in (elim.dims, elim.free, elim.null))

    def place(self, X, at=slice(None)):
        """The index of each solution X[..., j, :] of system j of the slice
        ``at`` of the systems within that system's block of
        ``solution_arrays``: x is x0 + null y with x = y on the free
        unknowns, so its place in the grid is its free entries read as
        base-q digits, the first most significant.  The caller keeps q^dims
        within int64."""
        free = self.free[at]
        after = self.dims[at, None] - np.cumsum(free, axis=1)
        return (X * np.where(free, self.q**after, 0)).sum(axis=-1)


def solution_arrays(batch):
    """The solutions of every solvable system of ``batch`` stacked in order
    into one int64 array, each system's in grid order (first free unknown
    slowest; ``SolutionBatch.place`` inverts it).  Systems with the same
    free unknowns share one grid and are expanded together; where they
    share one matrix, they share its homogeneous solutions too
    (``Elimination.grid``)."""
    q = batch.q
    ncols = batch.free.shape[1]
    ok = np.nonzero(batch.solvable)[0]
    if len(batch.elim.T) == 1:
        return ((batch.x0[ok, None, :] + batch.elim.grid) % q).reshape(-1, ncols)
    free = batch.free[ok]
    offsets = np.concatenate([[0], np.cumsum(q ** batch.dims[ok])])
    out = np.empty((offsets[-1], ncols), dtype=np.int64)
    if (free == free[:1]).all():  # one grid for all
        pats, which = free[:1], np.zeros(len(ok), dtype=np.intp)
    else:
        pats, which = np.unique(free, axis=0, return_inverse=True)
    for g, pat in enumerate(pats):
        pos = np.flatnonzero(which.reshape(-1) == g)
        vary = np.flatnonzero(pat)
        grid = np.indices((q,) * len(vary), dtype=np.int64).reshape(len(vary), q ** len(vary)).T
        null = batch.null[ok[pos]][:, :, vary]
        sols = (batch.x0[ok[pos]][:, None, :] + grid @ null.transpose(0, 2, 1)) % q
        rows = offsets[pos][:, None] + np.arange(len(grid))
        out[rows.ravel()] = sols.reshape(-1, ncols)
    return out
