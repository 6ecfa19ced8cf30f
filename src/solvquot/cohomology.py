"""The lifting systems of homomorphisms through an elementary abelian layer,
assembled from Fox derivatives, and their batched solver over Z_q."""

from __future__ import annotations

import functools

import numpy as np

from .groups import _digit_vectors


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
# ``solve_systems`` then groups the m systems by matrix, and ``eliminate``
# reduces each distinct one once mod q: a map's matrix depends on it only
# through sigma(rho(x_1)), ..., sigma(rho(x_n)), so a level's maps share few,
# and on a layer of trivial action every block is the exponent sum of its
# generator in its relator times I_s, one matrix for every map.  The top
# layer's systems are only counted: ``solution_dims`` ranks each [A | chi]
# with the same pivot loop (``_reduce``) and builds no solution.


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
    needs no kind of its own."""

    def __init__(self, layer):
        q, s = layer.q, layer.s
        self.nB = nB = len(layer.base)
        self.mul, inv = layer.base.mul, layer.base.inv
        ar = np.arange(nB)
        self.letter = np.concatenate([ar, inv, np.zeros(nB, dtype=np.int64)])
        sigma, chi = layer.sigma.reshape(nB, s * s), layer.chi
        back = np.einsum("bij,yj->byi", layer.sigma, chi[ar, inv])
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
        letters = tab.letter.take(at + img.T.take(gen, axis=0))  # (K, W, mb)
        after = letters.copy()
        k = 1
        while k < W:
            after[:, k:] = tab.mul.take(after[:, :-k] * nB + after[:, k:])
            k *= 2
        before = np.zeros_like(after)
        before[:, 1:] = after[:, :-1]
        terms = tab.terms.take((at + before) * nB + letters, axis=0)  # (K, W, mb, s*s + s)
        red = (block @ terms.reshape(K, W, mb * (s * s + s))).reshape(K, n, mb, s * s + s)
        A[lo : lo + step] = red[..., : s * s].reshape(K, n, mb, s, s).transpose(
            2, 0, 3, 1, 4).reshape(mb, K * s, n * s)
        chi[lo : lo + step] = red[..., s * s :].sum(axis=1).transpose(1, 0, 2).reshape(mb, K * s)
    return A % q, chi % q


@functools.lru_cache(maxsize=None)
def _inverses(q):
    """Inverses mod the prime q as an array, with 0 for 0."""
    return np.array([0] + [pow(a, -1, q) for a in range(1, q)], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _residues(q):
    """x mod q for x in -(q-1)^2..(q-1)^2, read at x + (q-1)^2."""
    return np.arange(-(q - 1) ** 2, (q - 1) ** 2 + 1, dtype=np.int64) % q


def _reduce(W, C, q):
    """Gauss-Jordan elimination over Z_q, q prime, of every W[j], entries
    in 0..q-1: row by row, the first nonzero entry of row i among the
    first C columns is its pivot, the row is scaled to make it 1 and the
    pivot's column is cleared in every other row; a row without a pivot
    is zero there.  Returns the reduced W, each row's pivot column and
    its pivot inverse (0 without one)."""
    m, R, width = W.shape
    inverse, residue, off = _inverses(q), _residues(q), (q - 1) ** 2
    cells = np.arange(m * R).reshape(m, R) * width
    col = np.empty((m, R), dtype=np.int64)
    unit = np.empty((m, R), dtype=np.int64)
    for i in range(R):
        row = W[:, i]
        col[:, i] = p = (row[:, :C] != 0).argmax(axis=1)
        pivots = W.take(cells + p[:, None])  # W[j, :, p[j]] at flat indices
        unit[:, i] = u = inverse[pivots[:, i]]  # 0 where the row is zero
        piv = residue[row * u[:, None] + off]
        W -= pivots[:, :, None] * piv[:, None, :] - off
        W = residue[W]
        W[:, i] += piv  # the pivot row was cleared to zero; a zero row keeps its transform
    return W, col, unit


def solution_dims(A, rhs, q):
    """d = C - rank A[j] for each system A[j] x = rhs[j] over Z_q, q prime,
    where rank A[j] = rank [A[j] | rhs[j]], else -1: one ``_reduce`` of
    [A | rhs], whose rows without a pivot must be zero in rhs too."""
    C = A.shape[2]
    W, _, unit = _reduce(np.concatenate([A % q, rhs[:, :, None] % q], axis=2), C, q)
    solvable = ~(W[:, :, C] * (unit == 0)).any(axis=1)
    return np.where(solvable, C - (unit != 0).sum(axis=1), -1)


def eliminate(A, q):
    """``_reduce`` of [A[j] | I_R] for every j at once, A (m, R, C), which
    carries I_R to a row transform.  Returns an ``Elimination``: the reduced
    rows placed by pivot column give the free unknowns, those without a
    pivot, and the columns of I - (reduced rows) at them span the
    homogeneous solutions."""
    m, R, C = A.shape
    eye = np.broadcast_to(np.eye(R, dtype=np.int64), (m, R, R))
    W, col, unit = _reduce(np.concatenate([A % q, eye], axis=2), C, q)
    at = np.flatnonzero(unit)  # row i of map j at j R + i
    red = np.zeros((m, C, C + R), dtype=np.int64)
    red.reshape(m * C, C + R)[at // R * C + col.take(at)] = W.reshape(m * R, C + R).take(at, axis=0)
    return Elimination(
        q,
        T=np.concatenate([red[:, :, C:], W[:, :, C:] * (unit == 0)[:, :, None]], axis=1),
        free=np.diagonal(red, axis1=1, axis2=2) == 0,
        null=(np.eye(C, dtype=np.int64) - red[:, :, :C]) % q,
    )


class Elimination:
    """The reduced form of k matrices over Z_q, q prime, in C unknowns and R
    rows: ``free`` (k, C) bool, ``dims`` (k,) int64, ``null`` (k, C, C) and
    ``T`` (k, C + R, R) int64.  Row c < C of T[g] reads the reduced
    right-hand side of the row whose pivot is unknown c (zero where c is
    free), and rows C.. read those of the rows with no pivot."""

    def __init__(self, q, T, free, null):
        self.q, self.T, self.free, self.null = q, T, free, null
        self.dims = free.sum(axis=1)
        self._homogeneous = {}

    def homogeneous(self, g):
        """The q^d homogeneous solutions of matrix g as a (q^d, C) array in
        grid order (first free unknown slowest), expanded on first use from
        the cached digit vectors of ``_digit_vectors`` read last column
        first, so that the first free unknown is the most significant."""
        if g not in self._homogeneous:
            y = _digit_vectors(self.q, int(self.dims[g]))[:, ::-1]
            self._homogeneous[g] = (y @ self.null[g][:, self.free[g]].T) % self.q
        return self._homogeneous[g]

    def solve(self, rhs, which):
        """The ``SolutionBatch`` of A[which[j]] x = rhs[j] for the (m, R)
        array ``rhs`` and the (m,) matrix index ``which``.  rhs' = T rhs:
        a system is solvable when rhs' is zero on the rows without a pivot,
        and x0 is rhs' at the pivot unknowns."""
        C = self.free.shape[1]
        y = (self.T.take(which, axis=0) @ rhs[:, :, None])[..., 0] % self.q
        return SolutionBatch(self, which, solvable=~y[:, C:].any(axis=1), x0=y[:, :C])


@functools.lru_cache(maxsize=None)
def _key_chunks(radix, n):
    """The columns of an n-column row over 0..radix-1 as slices that pack
    into keys below 2^62, big-endian; no columns make one empty slice."""
    width = 1
    while width < n and radix ** (width + 1) < 1 << 62:
        width += 1
    return tuple(slice(lo, min(lo + width, n)) for lo in range(0, max(n, 1), width))


def _distinct_rows(rows, radix):
    """The rows of an (m, n) array over 0..radix-1 sorted as packed int64
    keys (``_key_chunks``): the sorting permutation, and per sorted row
    whether it differs from the row before it (the first does)."""
    keys = np.array([rows[:, at].astype(np.int64) @ radix ** np.arange(at.stop - at.start)[::-1]
                     for at in _key_chunks(radix, rows.shape[1])])
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (np.diff(keys.take(order, axis=1)) != 0).any(axis=0)
    return order, new


def solve_systems(A, rhs, q):
    """Solve A[j] x = rhs[j] over Z_q, q prime, for every j at once; A is
    (m, R, C) and rhs (m, R).  The m matrices are grouped by content
    (``_distinct_rows``), ``eliminate`` reduces each distinct one once, and
    each system solves against its own (``Elimination.solve``)."""
    m = len(A)
    which = np.zeros(m, dtype=np.intp)
    if m > 1:
        order, new = _distinct_rows(A.reshape(m, -1) % q, q)
        which[order] = np.cumsum(new) - 1
        A = A.take(order[new], axis=0)
    return eliminate(A, q).solve(rhs, which)


class SolutionBatch:
    """The solution sets of m linear systems over Z_q, q prime, in C
    unknowns: ``which`` (m,) indexes each system's matrix in ``elim``,
    ``solvable`` (m,) bool, ``dims`` (m,) int64, ``x0`` (m, C) int64.  When
    system j, with matrix g, is solvable, its q^dims[j] solutions are x0[j]
    + elim.null[g] y mod q, y over Z_q on ``elim.free[g]`` and 0 elsewhere."""

    def __init__(self, elim, which, solvable, x0):
        self.q, self.elim, self.which, self.solvable, self.x0 = elim.q, elim, which, solvable, x0
        self.dims = elim.dims[which]

    def place(self, X, at=slice(None)):
        """The index of each solution X[..., j, :] of system j of the slice
        ``at`` of the systems within that system's block of
        ``solution_arrays``: x is x0 + null y with x = y on the free
        unknowns, so its place in the grid is its free entries read as
        base-q digits, the first most significant.  The caller keeps q^dims
        within int64."""
        free = self.elim.free.take(self.which[at], axis=0)
        after = self.dims[at, None] - np.cumsum(free, axis=1)
        return (X * np.where(free, self.q**after, 0)).sum(axis=-1)


def solution_arrays(batch):
    """The solutions of every solvable system of ``batch`` stacked in order
    into one int64 array, each system's in grid order (first free unknown
    slowest; ``SolutionBatch.place`` inverts it): each system's x0 plus the
    homogeneous solutions of its matrix, by broadcasting where one matrix
    serves every system, else in one gather.  Each entry of x0 + grid is
    at most 2q - 2, so one subtraction of q reduces it."""
    q, elim, C = batch.q, batch.elim, batch.x0.shape[1]
    ok = np.flatnonzero(batch.solvable)
    which = batch.which[ok]
    sizes = np.where(np.bincount(which, minlength=len(elim.T)), q**elim.dims, 0)
    homs = [elim.homogeneous(g) for g in np.flatnonzero(sizes).tolist()]
    if len(homs) == 1:
        X = (batch.x0.take(ok, axis=0)[:, None] + homs[0]).reshape(-1, C)
    else:
        counts = sizes[which]
        owner = np.repeat(ok, counts)
        X = np.concatenate(homs + [np.empty((0, C), dtype=np.int64)]).take(
            np.repeat(np.cumsum(sizes)[which] - np.cumsum(counts), counts)
            + np.arange(len(owner)), axis=0)
        X += batch.x0.take(owner, axis=0)
    X -= q * (X >= q)
    return X
