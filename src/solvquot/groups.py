"""Finite solvable groups as explicit extension towers carrying per-layer
monodromy and 2-cocycle data, plus multiplication-table utilities."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re

import numpy as np

from .presentations import (
    CapExceeded, Presentation, factorize, smith_normal_form, word_inverse, word_str)


class GroupSpecError(ValueError):
    pass


DEFAULT_ORDER_CAP = 512
# most candidate image tuples an isomorphism search may try
BIJECTIVE_TUPLE_CAP = 1_000_000
# image entries the generator-image search fills in one array pass
SEARCH_BLOCK = 1 << 18
# most image entries (rows times the group order) the series automorphism
# search may keep: D(256) (8192 rows of 256) and Z(2)^6 (32768 of 64) fit
SERIES_ENTRY_CAP = 1 << 22


# ---------------------------------------------------------------------------
# Multiplication tables.  Elements are 0..n-1 and the identity is always 0.


class FiniteGroupTable:
    """A group as its multiplication table, given as rows of element
    indices or as a square integer array.  ``mul[a, b]`` is the product of
    the elements a and b and ``inv[a]`` the inverse of a, both read-only
    int64 arrays.  The constructor checks the table once: nonempty rows of
    integers, square, every entry in 0..n-1, element 0 a two-sided identity
    and every element with a two-sided inverse; associativity only
    ``check_associativity`` checks.  ``orders`` and ``conj`` are built on
    first use and kept."""

    def __init__(self, mul, name=""):
        try:
            mul = np.array(mul)
        except ValueError:  # ragged rows
            mul = np.array(None)
        if mul.ndim != 2 or not mul.size or mul.dtype.kind not in "iu":
            raise GroupSpecError("table rows must be nonempty, of integers and of one length")
        n = len(mul)
        if mul.shape != (n, n):
            raise GroupSpecError("table is not square: %d rows of %d entries" % mul.shape)
        if mul.min() < 0 or mul.max() >= n:
            raise GroupSpecError("multiplication table entries must lie in 0..%d" % (n - 1))
        mul = mul.astype(np.int64, copy=False)
        ids = np.arange(n)
        if ((mul[0] != ids) | (mul[:, 0] != ids)).any():
            raise GroupSpecError("element 0 is not an identity")
        # the inverse of a is the first b in its row with a b = 1, if b a = 1
        inv = (mul == 0).argmax(axis=1)
        bad = mul[ids, inv] | mul[inv, ids]  # entries are >= 0
        if bad.any():
            raise GroupSpecError("element %d has no two-sided inverse" % np.flatnonzero(bad)[0])
        mul.flags.writeable = inv.flags.writeable = False
        self.mul, self.inv, self.n, self.name = mul, inv, n, name
        self._auts = None

    def __len__(self):
        return self.n

    @functools.cached_property
    def orders(self):
        """The order of every element as a read-only int64 array, read off
        the powers x^k, 1 <= k <= m, of all elements at once: m doubles,
        the powers for m < k <= 2m being x^m times those for k <= m, until
        every element has a power 1, which in a group happens by m = n."""
        powers = np.arange(self.n)[None]  # row k - 1 holds every x^k
        while powers.min(axis=0).any():
            if len(powers) >= self.n:
                raise GroupSpecError("some element has no power equal to the identity")
            powers = np.concatenate([powers, self.mul[powers[-1], powers]])
        orders = (powers == 0).argmax(axis=0) + 1
        orders.flags.writeable = False
        return orders

    @functools.cached_property
    def conj(self):
        """conj[b, x] = b x b^-1 as a read-only int32 array."""
        conj = self.mul[self.mul, self.inv[:, None]].astype(np.int32)
        conj.flags.writeable = False
        return conj

    def check_associativity(self):
        """Exhaustive for order <= 64, above on 20000 random triples, three
        draws of ``random.Random(0)`` each."""
        n, mul = self.n, self.mul
        if n <= 64:
            ok = (mul[mul] == mul[:, mul]).all()  # [a, b, c]: (a b) c and a (b c)
        else:
            draw = random.Random(0).randrange
            a, b, c = np.array([draw(n) for _ in range(3 * 20000)]).reshape(-1, 3).T
            ok = (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
        if not ok:
            raise GroupSpecError("multiplication table is not associative")

    def power(self, x, k):
        """x^k for an element or an array of elements x and an exponent
        k >= 0, by repeated squaring."""
        y = np.zeros_like(x)
        while k:
            if k & 1:
                y = self.mul[y, x]
            x, k = self.mul[x, x], k >> 1
        return y

    def is_abelian(self):
        return bool((self.mul == self.mul.T).all())

    def closure(self, gens):
        """The subgroup that the elements ``gens`` generate, as a frozenset
        of ints, read off its breadth-first expressions."""
        return frozenset([0] + [y for y, _, _ in bfs_expressions(self, sorted(set(gens)))])

    def conjugates(self, x):
        return set(self.conj[:, x].tolist())

    def normal_closure(self, xs):
        conj = set()
        for x in xs:
            conj |= self.conjugates(x)
        return self.closure(conj)

    def is_normal(self, elems):
        elems = sorted(elems)
        return bool(np.isin(self.conj[:, elems], elems).all())

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b, for elements or arrays of them."""
        mul, inv = self.mul, self.inv
        return mul[mul[inv[a], inv[b]], mul[a, b]]

    def derived_subgroup(self, elems=None):
        elems = np.arange(self.n) if elems is None else np.fromiter(elems, dtype=np.int64)
        return self.closure(np.unique(self.commutator(elems[:, None], elems)).tolist())

    def is_solvable(self):
        cur = frozenset(range(self.n))
        while True:
            nxt = self.derived_subgroup(cur)
            if nxt == cur:
                return len(cur) == 1
            cur = nxt

    def center_set(self):
        return _elements((self.conj == np.arange(self.n)).all(axis=1))

    def is_nilpotent(self):
        K = frozenset({0})
        while len(K) < self.n:
            Q, proj, _ = self.quotient(K)
            Zq = Q.center_set()
            if len(Zq) == 1:
                return False
            K = _elements(np.isin(proj, list(Zq)))
        return True

    def quotient(self, normal):
        """Quotient by a normal subgroup given as an element set, with the
        int64 arrays proj (each element's coset) and reps (each coset's
        least element).  Cosets are indexed in order of their smallest
        element, so coset 0 is the image of the identity."""
        low = self.mul[:, sorted(normal)].min(axis=1)  # least element of x N
        reps, proj = np.unique(low, return_inverse=True)
        table = proj[self.mul[reps[:, None], reps]]
        return FiniteGroupTable(table, name=self.name and self.name + "/N"), proj, reps

    def subtable(self, elems):
        """Table of a subgroup (elements must be closed and contain 0), with
        the sorted list of its elements: element i of the table is the
        i-th."""
        sub = sorted(elems)
        pos = np.full(self.n, -1)
        pos[sub] = np.arange(len(sub))
        return FiniteGroupTable(pos[self.mul[np.ix_(sub, sub)]]), sub


TRIVIAL_TABLE = FiniteGroupTable([[0]], name="1")


class PermutationGroup:
    """A permutation group on the points 0..n-1, given by the distinct rows
    of its elements (row[x] is the image of x), with a stabiliser chain
    that canonical forms build as they need it.  A node is a set of
    elements, kept once per set: node 0 is the group, and its child at a
    point p its stabiliser of p.  For node k and point x, ``carry[k, x]``
    is the offset e n in ``rows.ravel()`` of an element e of the node
    taking x to the least point p of x's orbit under the node,
    ``length[k, x]`` that orbit's length, measured from the node's rows
    (so a row set that is not a group shows in the orbit sizes), and
    ``child[k, p]`` the child at p, -1 until ``descend`` builds it."""

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.shape[1]
        if not (rows == np.arange(n)).all(axis=1).any():
            raise GroupSpecError("the permutation rows do not contain the identity")
        self.rows = rows
        self.members = []  # the element indices of each node
        self._nodes = {}  # a node's members as bytes -> its index
        self.carry = np.empty((0, n), dtype=np.int64)
        self.length = np.empty((0, n), dtype=np.int64)
        self.child = np.empty((0, n), dtype=np.int64)
        self._node(np.arange(len(rows)))

    def __len__(self):
        return len(self.rows)

    def _node(self, members):
        """The index of the node of the elements ``members``, added with its
        orbit data if no node has them."""
        key = members.tobytes()
        if key not in self._nodes:
            self._nodes[key] = len(self.members)
            self.members.append(members)
            sub = self.rows[members]
            n = sub.shape[1]
            self.carry = np.vstack([self.carry, members[sub.argmin(axis=0)] * n])
            distinct = np.diff(np.sort(sub, axis=0), axis=0) != 0
            self.length = np.vstack([self.length, 1 + distinct.sum(axis=0)])
            self.child = np.vstack([self.child, np.full(n, -1)])
        return self._nodes[key]

    def descend(self, nodes, points):
        """The child of each node of ``nodes`` at its point of ``points``, a
        least orbit point, building the stabilisers that are missing."""
        n = self.rows.shape[1]
        at = nodes * n + points
        missing = np.bincount(at[self.child.ravel()[at] < 0], minlength=self.child.size)
        for k, p in zip(*np.divmod(np.flatnonzero(missing), n)):
            members = self.members[k]
            self.child[k, p] = self._node(members[self.rows[members, p] == p])
        return self.child.ravel()[at]


def _coords(radices):
    """Coordinate arrays (c0, c1, ...) of the elements 0..n-1 of a group on
    tuples 0 <= c_i < radices[i], numbered little-endian: element
    c0 + r0 (c1 + r1 (c2 + ...))."""
    idx = np.arange(math.prod(radices))
    out = []
    for r in radices:
        out.append(idx % r)
        idx = idx // r
    return out


def _coords_array(radices, mulfn):
    """Multiplication array of a group on coordinate tuples numbered as in
    ``_coords``.  ``mulfn`` takes two tuples of broadcasting integer arrays
    and returns the product's coordinates, each reduced mod its radix."""
    cs = _coords(radices)
    prod = mulfn(tuple(c[:, None] for c in cs), tuple(c[None, :] for c in cs))
    table = 0
    for c, r in zip(prod[::-1], radices[::-1]):
        table = table * r + c
    return table


def table_from_coords(radices, mulfn, name=""):
    """``_coords_array`` as a checked ``FiniteGroupTable``."""
    return FiniteGroupTable(_coords_array(radices, mulfn), name=name)


def _elements(mask):
    return frozenset(np.flatnonzero(mask).tolist())


def generating_sequence(table):
    """Greedy generating sequence: highest order first, smallest index on
    ties."""
    gens, inside = [], {0}
    for x in np.argsort(-table.orders, kind="stable").tolist():
        if len(inside) == table.n:
            break
        if x not in inside:
            gens.append(x)
            inside = table.closure(gens)
    return gens


def bfs_expressions(table, gens):
    """Breadth-first expressions: triples (elem, parent, genpos) with
    elem = parent * gens[genpos], covering every element of the subgroup
    the generators generate except the identity, in discovery order."""
    links = []
    seen = {0}
    frontier = [0]
    times = table.mul[:, gens].tolist()  # times[x][gp] = x gens[gp]
    while frontier:
        new = []
        for x in frontier:
            for gp, y in enumerate(times[x]):
                if y not in seen:
                    seen.add(y)
                    links.append((y, x, gp))
                    new.append(y)
        frontier = new
    return links


def eval_word_in_table(table, images, w):
    """The value of the word w at the generator images: one element per
    generator gives one element, one array per generator the values at
    every index of the arrays (numpy indexing either way)."""
    x = 0
    for g, e in w:
        x = table.mul[x, images[g] if e == 1 else table.inv[images[g]]]
    return x


# ---------------------------------------------------------------------------
# Morphism search by generator images, checked on the generators.


def _homomorphic(f, src, dst, gens, elems=slice(None)):
    """Which rows f of an (m, |src|) array of images in ``dst`` are
    homomorphisms on the subgroup ``elems`` (default: all of src) that
    ``gens`` generate: those with f(x g) = f(x) f(g) for every x in it and
    every generator g (then f(x y) = f(x) f(y) by induction on the length
    of y)."""
    return (dst.mul[f[:, elems, None], f[:, gens][:, None, :]]
            == f[:, src.mul[:, gens][elems]]).all(axis=(1, 2))


def _homomorphism_blocks(src, gens, dst, cands, entry_cap=None):
    """The homomorphisms src -> dst that send gens[i] into cands[i], in the
    order of ``itertools.product`` over the candidate lists, as blocks of
    image rows.  The tuples grow one generator at a time, and a prefix for
    gens[:k] is kept only where it is a homomorphism on the subgroup those
    generators generate, as the restriction of every homomorphism is; once
    the kept prefixes times the tuples of the remaining candidates fit in
    one block of about SEARCH_BLOCK image entries, they are all tried
    together.  With ``entry_cap``, a prefix stage raises CapExceeded once
    its kept rows times |src| pass it."""
    links = bfs_expressions(src, gens)
    if len(links) + 1 != src.n:
        raise GroupSpecError("generators do not generate")
    cands = [np.array(c, dtype=np.int64) for c in cands]
    step = max(1, SEARCH_BLOCK // (src.n * max(1, len(gens))))
    prefixes, k = np.zeros((1, 0), dtype=np.int64), 0
    while True:
        rest = len(prefixes) * math.prod(len(c) for c in cands[k:])
        j = len(gens) if rest <= step else k + 1
        sub = links if j == len(gens) else bfs_expressions(src, gens[:j])
        blocks = _extensions(src, gens[:j], dst, sub, prefixes, cands[k:j], step)
        if j == len(gens):
            yield from blocks
            return
        kept, rows = [], 0
        for f in blocks:
            rows += len(f)
            if entry_cap is not None and rows * src.n > entry_cap:
                raise CapExceeded("would keep at least %d image entries (cap %d)"
                                  % (rows * src.n, entry_cap))
            kept.append(f[:, gens[:j]])
        prefixes = np.concatenate(kept)
        k = j


def _extensions(src, gens, dst, links, prefixes, cands, step):
    """Blocks of the image rows, on the subgroup that ``gens`` generate and
    0 elsewhere, of the homomorphisms of that subgroup whose generator
    images begin with a row of ``prefixes`` and go on with a tuple of
    ``cands``, in the order of the prefixes and then of
    ``itertools.product``.  Each block's tuples are filled along the
    subgroup's breadth-first expressions ``links``, one array pass per
    element, and kept when ``_homomorphic``."""
    elems = np.array([0] + [y for y, _, _ in links])
    k = prefixes.shape[1]
    tuples = len(prefixes) * math.prod(len(c) for c in cands)
    for lo in range(0, tuples, step):
        # the block's tuples, the last generator's candidate varying fastest
        idx = np.arange(lo, min(lo + step, tuples))
        images = np.empty((len(idx), len(gens)), dtype=np.int64)
        for gp in range(len(gens) - 1, k - 1, -1):
            images[:, gp] = cands[gp - k][idx % len(cands[gp - k])]
            idx = idx // len(cands[gp - k])
        images[:, :k] = prefixes[idx]
        f = np.zeros((len(images), src.n), dtype=np.int64)
        for elem, parent, gp in links:
            f[:, elem] = dst.mul[f[:, parent], images[:, gp]]
        yield f[_homomorphic(f, src, dst, gens, elems)]


def _automorphism_search(table, label, what, entry_cap=None):
    """The automorphisms of the group that keep ``label`` (an int array over
    its elements) as a read-only int32 array of image rows: each generator
    of ``generating_sequence`` goes to the elements of its label, in the
    order of ``itertools.product`` (``_homomorphism_blocks``), and the
    injective homomorphisms (only the identity maps to the identity) that
    keep every label are kept.  Raises CapExceeded, its message beginning
    with ``what`` and the order, before it starts past BIJECTIVE_TUPLE_CAP
    candidate tuples and, with ``entry_cap``, before any stage, a prefix
    stage or the last, keeps more image entries (rows times the order)."""
    gens = generating_sequence(table)
    cands = [np.flatnonzero(label == label[g]) for g in gens]
    tuples = math.prod(len(c) for c in cands)
    message = "%s a group of order %d " % (what, table.n)
    if tuples > BIJECTIVE_TUPLE_CAP:
        raise CapExceeded(message + "would try %d candidate image tuples (cap %d)"
                          % (tuples, BIJECTIVE_TUPLE_CAP))
    kept, entries = [], 0
    try:
        for f in _homomorphism_blocks(table, gens, table, cands, entry_cap):
            f = f[(f[:, 1:] != 0).all(axis=1) & (label[f] == label).all(axis=1)]
            entries += f.size
            if entry_cap is not None and entries > entry_cap:
                raise CapExceeded("would keep at least %d image entries (cap %d)"
                                  % (entries, entry_cap))
            kept.append(f.astype(np.int32))
    except CapExceeded as exc:
        raise CapExceeded(message + str(exc)) from None
    rows = np.concatenate(kept)
    rows.flags.writeable = False
    return rows


def automorphisms(table):
    """The automorphisms of the group as a read-only int32 array, one image
    row per automorphism, found by one search per table that sends each
    generator to the elements of its order (``_automorphism_search``) and
    kept on it.  The order was checked against the caller's cap when the
    group was built; the search is bounded by its tuple cap."""
    if table._auts is None:
        table._auts = _automorphism_search(table, table.orders,
                                           "isomorphism search from")
    return table._auts


def aut_order(table):
    """|Aut|, the number of rows of ``automorphisms``."""
    return len(automorphisms(table))


# ---------------------------------------------------------------------------
# Elementary abelian layers and extension towers.
#
# A layer extends the group built so far (its base B) by E = Z_q^s, with
# monodromy sigma: B -> GL(s, q) and a normalized 2-cocycle chi: B x B -> E,
# kept as read-only int64 arrays of shapes (|B|, s, s) and (|B|, |B|, s):
# column j of sigma[b] is the image of basis vector j.  Elements of the
# extension are pairs (e, b), encoded as e * |B| + b, with
#   (e1, b1) (e2, b2) = (e1 + sigma_{b1} e2 + chi(b1, b2),  b1 b2).


@functools.lru_cache(maxsize=None)
def _digit_vectors(q, s):
    """The base-q digit vectors v of 0..q^s - 1 as a read-only (q^s, s)
    int64 array, little-endian: num = sum v[k] q^k."""
    vecs = np.arange(q**s)[:, None] // q ** np.arange(s) % q
    vecs.flags.writeable = False
    return vecs


class ElementaryLayer:
    def __init__(self, q, s, base, sigma, chi):
        self.q = q
        self.s = s
        self.base = base
        sigma.flags.writeable = False
        chi.flags.writeable = False
        self.sigma = sigma
        self.chi = chi
        self.E = E = q**s
        nB = len(base)
        powers = q ** np.arange(s)
        vecs = _digit_vectors(q, s)
        sigma_perm = np.einsum("bac,ec->bea", sigma, vecs) % q @ powers
        chi_num = chi @ powers
        # (e1, b1)(e2, b2) over the (E, nB, E, nB) grid: e1 + sigma_{b1} e2,
        # then + chi(b1, b2), each by the addition table of E
        add = (vecs[:, None] + vecs[None]) % q @ powers
        e = add[np.arange(E)[:, None, None], sigma_perm]
        e = add[e[..., None], chi_num[None, :, None, :]]
        table = e * nB + base.mul[None, :, None, :]
        self.group = FiniteGroupTable(table.reshape(E * nB, E * nB),
                                      name="Z%d^%d.%s" % (q, s, base.name or "B"))
        # derived constants
        self._base_gens = generating_sequence(base) if nB > 1 else []
        self.zeta = int((sigma != np.eye(s, dtype=np.int64)).any())
        # log_q |End(E)|: the matrices commuting with the monodromy image
        acts = sigma[self._base_gens]
        self.kappa = intertwiner_space_dim(acts, acts, q, s)
        # the built rows pass the sections setter's check by construction
        rows = self._complement_sections()
        rows.flags.writeable = False
        self._sections = rows
        self.complements = len(rows)
        self.c_chi = int(self.complements > 0)
        self.module_type = self.alpha = None  # filled by the tower

    @property
    def sections(self):
        """The complement sections as a read-only (c, |B|) int32 array: row[b]
        is the image of the base element b.  The non-surjective lifts of an
        epimorphism with images (b_i) are exactly the rows' restrictions
        (row[b_i])."""
        return self._sections

    @sections.setter
    def sections(self, rows):
        """Set the sections after checking that they are ``complements``
        distinct homomorphic sections of the projection onto the base; the
        stored copy is read-only, so they cannot change without this check."""
        c, nB, n = self.complements, len(self.base), len(self.group)
        sec = np.array(rows, dtype=np.int64)
        ok = sec.shape == (c, nB) and ((0 <= sec) & (sec < n)).all()
        if ok and c:
            # homomorphisms are equal when they agree on the generators
            ok = ((sec % nB == np.arange(nB)).all()
                  and _homomorphic(sec, self.base, self.group, self._base_gens).all()
                  and len(np.unique(sec[:, self._base_gens], axis=0)) == c)
        if not ok:
            raise GroupSpecError("the complement rows are not %d distinct homomorphic "
                                 "sections of the layer" % c)
        sec = sec.astype(np.int32)
        sec.flags.writeable = False
        self._sections = sec

    def _complement_sections(self):
        """Complements of E in the extension = homomorphic sections of the
        projection, found by generator images in the fibres
        {e * |base| + g}, as rows of ``sections``."""
        base = self.base
        nB = len(base)
        if nB == 1:
            return np.zeros((1, 1), dtype=np.int32)
        gens = self._base_gens
        fibres = [range(g, self.E * nB, nB) for g in gens]
        return np.concatenate(list(_homomorphism_blocks(base, gens, self.group, fibres))
                              ).astype(np.int32)

    def verify(self):
        """Check sigma and chi as they stand: sigma is a homomorphism into
        GL(s, q), chi is normalised and satisfies the 2-cocycle identity (on
        every triple for |B| <= 48, above on 20000 random triples from a
        numpy Generator with seed 1), and for s > 1 the monodromy is
        irreducible."""
        nB = len(self.base)
        q = self.q
        sig, ch = self.sigma, self.chi
        mul = self.base.mul
        if (np.einsum("iac,jcd->ijad", sig, sig) % q != sig[mul]).any():
            raise GroupSpecError("monodromy is not a homomorphism")
        if ch[0].any() or ch[:, 0].any():
            raise GroupSpecError("cocycle is not normalized")
        if nB <= 48:
            b = np.arange(nB)
            b1, b2, b3 = b[:, None, None], b[:, None], b
        else:
            b1, b2, b3 = np.random.Generator(np.random.PCG64(1)).integers(
                nB, size=(3, 20000))
        # sigma_{b1} chi(b2, b3) - chi(b1 b2, b3) + chi(b1, b2 b3) - chi(b1, b2)
        defect = (np.einsum("...ac,...c->...a", sig[b1], ch[b2, b3]) - ch[mul[b1, b2], b3]
                  + ch[b1, mul[b2, b3]] - ch[b1, b2]) % q
        if defect.any():
            raise GroupSpecError("2-cocycle identity fails")
        if self.s > 1 and not self._is_irreducible():
            raise GroupSpecError("layer kernel is not a minimal normal subgroup")

    def _is_irreducible(self):
        """No proper nonzero subspace of E invariant under the monodromy
        image.  With sigma a homomorphism, the sigma_b v span an invariant
        subspace, all of E for every nonzero v exactly when E is irreducible;
        it is proper when a nonzero functional w kills every sigma_b v."""
        q = self.q
        vecs = _digit_vectors(q, self.s)
        vals = vecs @ (self.sigma @ vecs.T % q) % q  # (nB, w, v): w . sigma_b v
        return not (vals == 0).all(axis=0)[1:, 1:].any()


class ExtensionTower:
    """A group presented as iterated elementary abelian extensions, bottom
    group trivial.  layers[i] extends the group built from layers[0..i-1]."""

    def __init__(self, layers, spec="", source_table=None, source_iso=None):
        self.layers = layers
        self.spec = spec
        self.source_table = source_table
        self.source_iso = source_iso
        self._series_auts = None
        self._orbit_groups = {}
        self._fill_alphas()

    @property
    def group(self):
        return self.layers[-1].group if self.layers else TRIVIAL_TABLE

    @property
    def order(self):
        n = 1
        for lay in self.layers:
            n *= lay.E
        return n

    def level_group(self, i):
        return self.layers[i - 1].group if i > 0 else TRIVIAL_TABLE

    def level_gens(self, i):
        """Standard generators of the level-i group: the kernel basis q^k of
        each layer j below it, as the elements q^k |B_j| (``project``)."""
        return [lay.q**k * len(lay.base) for lay in self.layers[:i] for k in range(lay.s)]

    def project(self, x, level):
        """The image in the level group B of x (an element or an array) of
        any level above: e |B'| + b in a layer over B' projects to b, and
        |B| divides |B'|, so x projects to x mod |B|, and an element of B is
        the same number in every level above it."""
        return x % len(self.level_group(level))

    def presentation(self, level=None):
        """The power-conjugate presentation of the level group (default: the
        top) on ``level_gens(level)``, in order: one relator
        g_i^q NF(g_i^q)^-1 per generator and one g_i^-1 g_k g_i NF(...)^-1
        per pair i < k.  NF(x) is the normal form g_1^e_1 ... g_N^e_N,
        0 <= e_i < q, found by sifting x down the layers: its coordinates in
        layer j's kernel are the exponents of layer j's generators, and x is
        divided by their product before the next layer.  Both kinds of
        relator hold in the group and every word collects to a normal form,
        so the presented group has |B| elements: it is B.  Each relator is
        checked on the generators, which also checks every normal form."""
        level = len(self.layers) if level is None else level
        table = self.level_group(level)
        gens = self.level_gens(level)
        mul, inv = table.mul, table.inv

        def normal_word(x):
            word, first = [], 0
            for j, lay in enumerate(self.layers[:level]):
                e = self.project(x, j + 1) // len(lay.base)
                for g, k in enumerate(_digit_vectors(lay.q, lay.s)[e].tolist(), first):
                    word += [(g, 1)] * k
                    for _ in range(k):
                        x = mul[inv[gens[g]], x]
                first += lay.s
            return tuple(word)

        qs = [lay.q for lay in self.layers[:level] for _ in range(lay.s)]
        relators = [((i, 1),) * q + word_inverse(normal_word(table.power(g, q)))
                    for i, (g, q) in enumerate(zip(gens, qs))]
        for i, k in itertools.combinations(range(len(gens)), 2):
            x = mul[mul[inv[gens[i]], gens[k]], gens[i]]
            relators.append(((i, -1), (k, 1), (i, 1)) + word_inverse(normal_word(x)))
        P = Presentation(tuple("g%d" % (i + 1) for i in range(len(gens))), tuple(relators))
        for rel in P.relators:
            if eval_word_in_table(table, gens, rel) != 0:
                raise ArithmeticError("the generators of level %d do not satisfy %s"
                                      % (level, word_str(rel, P.generators)))
        return P

    def chain_in_group(self):
        """The chief chain as sorted element arrays of the top group, largest
        first: term i is the kernel N_i of the projection onto level i, the
        multiples of |B_i| (``project``)."""
        n = len(self.group)
        return [np.arange(0, n, len(self.level_group(i))) for i in range(len(self.layers) + 1)]

    def orbit_group(self, level):
        """The group acting on the maps into the level group B (level >= 1),
        as a PermutationGroup on the distinct rows of its elements (row[b]
        is the image of b), one per level, kept on the tower with the
        stabiliser chain its canonical forms build; every count lifts
        modulo it.  It is the image of A = Aut(Gamma, series), the
        automorphisms of the top group that map every chain term onto
        itself (``_series_automorphisms``): alpha induces on B the map
        b -> alpha(b) projected to B, the first |B| entries of its row.
        Where that search is refused, it is Inn(B), the distinct rows of
        B's conjugation table."""
        if level not in self._orbit_groups:
            table = self.level_group(level)
            try:
                rows = self.project(self._series_automorphisms()[:, : table.n], level)
            except CapExceeded:
                rows = table.conj
            # rows that agree on a generating sequence are equal
            if level < len(self.layers):
                gens = self.layers[level]._base_gens
            else:
                gens = generating_sequence(table)
            first = np.unique(rows[:, gens], axis=0, return_index=True)[1]
            self._orbit_groups[level] = PermutationGroup(rows[first])
        return self._orbit_groups[level]

    def _series_automorphisms(self):
        """A = Aut(Gamma, series), the automorphisms of the top group that
        map every chain term into, hence onto, itself, as int32 image rows
        in the order of ``automorphisms``, found by their own search.  Such
        an automorphism keeps the order of every element and its depth, the
        largest j with x in N_j (x projects to 0 in B_j); conversely a
        bijection that keeps every depth maps each N_j onto itself.  So A
        is ``_automorphism_search`` with the label order * (len(chain) + 1)
        + depth, which tells both apart.  The search raises CapExceeded
        before it starts past BIJECTIVE_TUPLE_CAP candidate tuples, and
        before any of its stages keeps more than SERIES_ENTRY_CAP entries
        (rows times |Gamma|); the refusal is kept and raised again on every
        later call.  The order was checked against the caller's cap at
        tower build."""
        table = self.group
        if self._series_auts is None:
            chain = self.chain_in_group()
            depth = np.empty(table.n, dtype=np.int64)
            for j, N in enumerate(chain):
                depth[N] = j
            label = table.orders * (len(chain) + 1) + depth
            try:
                self._series_auts = _automorphism_search(
                    table, label, "series automorphism search of", SERIES_ENTRY_CAP)
            except CapExceeded as exc:
                self._series_auts = str(exc)
        if isinstance(self._series_auts, str):  # the refusal, kept
            raise CapExceeded(self._series_auts)
        return self._series_auts

    def verify(self):
        for lay in self.layers:
            lay.verify()

    def _fill_alphas(self):
        """Number the layers' module-isomorphism classes over the top group
        in order of first appearance (``module_type``), and set alpha_i to
        the number of complemented layers j <= i of layer i's class.  Every
        kernel is an irreducible module, so by Schur a nonzero intertwiner
        with a class's first layer places a layer in that class."""
        top = len(self.layers)
        gens = np.array(self.level_gens(top), dtype=np.int64)
        firsts = []  # (q, s, action on gens) of each class's first layer
        complemented = []  # per class, the complemented layers so far
        for i, lay in enumerate(self.layers):
            acts = lay.sigma[self.project(gens, i)]
            for t, (q, s, first) in enumerate(firsts):
                if (q, s) == (lay.q, lay.s) and intertwiner_space_dim(first, acts, q, s) > 0:
                    break
            else:
                t = len(firsts)
                firsts.append((lay.q, lay.s, acts))
                complemented.append(0)
            complemented[t] += lay.c_chi
            lay.module_type, lay.alpha = t, complemented[t]


def intertwiner_space_dim(acts_a, acts_b, q, s):
    """Dimension of {T : T A_g = B_g T for all g} over Z_q, for (g, s, s)
    arrays of the A_g and B_g: s^2 less the rank mod q of the system, the
    number of its Smith invariants that q does not divide (the unimodular
    transforms of the Smith normal form stay invertible mod q).  Row
    (g, i, j) reads (T A_g - B_g T)[i, j] off the entries T[c, d] of T,
    row-major: A_g[d, j] where c = i, less B_g[i, c] where d = j."""
    eye = np.eye(s, dtype=np.int64)
    system = (np.einsum("ic,gdj->gijcd", eye, acts_a)
              - np.einsum("gic,jd->gijcd", acts_b, eye)) % q
    rows = system.reshape(-1, s * s).tolist()
    return s * s - sum(d % q != 0 for d in smith_normal_form(rows, ncols=s * s))


def _elementary_structure(Q, kset):
    """Identify the elementary abelian subgroup of Q whose elements are the
    sorted list ``kset``: returns (q, s, basis, elem_of_num).  Each basis
    element is the first of kset that is no product b_1^c_1 ... b_j^c_j of
    those before it, and the int64 array elem_of_num holds that product at
    index num for the little-endian digits c of num; s basis elements reach
    all q^s elements only when their q^s products are distinct."""
    fac = factorize(len(kset))
    if len(fac) != 1:
        raise GroupSpecError("chief factor is not elementary abelian")
    (q, s), = fac.items()
    if Q.power(np.array(kset), q).any():  # some element's order is not 1 or q
        raise GroupSpecError("chief factor is not elementary abelian")
    basis, elem_of_num, span = [], [0], {0}
    for x in kset:
        if x not in span and len(basis) < s:
            basis.append(x)
            times_x = Q.mul[:, x].tolist()
            blocks = [elem_of_num]  # block c: the products times x^c
            for _ in range(q - 1):
                blocks.append([times_x[u] for u in blocks[-1]])
            elem_of_num = [y for block in blocks for y in block]
            span = set(elem_of_num)
    if span != set(kset):
        raise GroupSpecError("chief factor is not elementary abelian")
    return q, s, basis, np.array(elem_of_num)


def tower_from_chief_chain(table, chain, spec=""):
    """Build an extension tower from a descending chain of normal subgroups
    with elementary abelian quotients.  Set sections always pick the coset
    with the lowest element index."""
    chain = [frozenset(c) for c in chain]
    if chain[0] != frozenset(range(table.n)) or chain[-1] != frozenset({0}):
        raise GroupSpecError("chain must run from the full group to the identity")
    layers = []
    psi = np.zeros(1, dtype=np.int64)  # nested index -> index in table/chain[i] quotient
    prev_q = TRIVIAL_TABLE
    prevproj = np.zeros(table.n, dtype=np.int64)  # table -> table/chain[i]
    for i in range(len(chain) - 1):
        Q, proj, reps = table.quotient(chain[i + 1])
        kset = np.unique(proj[sorted(chain[i])]).tolist()
        q, s, basis, elem_of_num = _elementary_structure(Q, kset)
        num_of = np.full(Q.n, -1)  # kernel coordinate number, -1 off the kernel
        num_of[elem_of_num] = np.arange(len(elem_of_num))
        vecs = _digit_vectors(q, s)
        # the minimal-index section of Q -> previous quotient: np.unique
        # returns the first x with each image
        sec = np.unique(prevproj[reps], return_index=True)[1][psi]
        mul, inv = Q.mul, Q.inv
        # column j of sigma(b) is the vector of m basis[j] m^-1, m = sec[b]
        nums = num_of[mul[mul[sec[:, None], basis], inv[sec][:, None]]]
        if (nums < 0).any():
            raise GroupSpecError("chain member is not normal")
        sigma = vecs[nums].swapaxes(1, 2).copy()
        # chi(b1, b2) = sec[b1] sec[b2] sec[b1 b2]^-1
        nums = num_of[mul[mul[sec[:, None], sec], inv[sec[prev_q.mul]]]]
        if (nums < 0).any():
            raise GroupSpecError("section defect leaves the kernel")
        chi = vecs[nums]
        lay = ElementaryLayer(q, s, prev_q, sigma, chi)
        lay.verify()
        # psi is indexed by e * |base| + b
        psi = mul[elem_of_num[:, None], sec].ravel()
        prevproj = proj
        prev_q = lay.group
        layers.append(lay)
    return ExtensionTower(layers, spec=spec, source_table=table, source_iso=psi.tolist())


# ---------------------------------------------------------------------------
# Chief series of an arbitrary solvable table.


def minimal_normal_subgroup(table):
    """Deterministic minimal normal subgroup: normal closures of prime-order
    elements, minimal under inclusion, smallest first."""
    cands = set()
    for x, o in enumerate(table.orders.tolist()):
        if factorize(o) == {o: 1}:  # prime order
            cands.add(table.normal_closure([x]))
    if not cands:
        raise GroupSpecError("no prime-order elements; not a nontrivial group?")
    minimal = [
        N for N in cands if not any(M < N for M in cands)
    ]
    return min(minimal, key=lambda N: (len(N), tuple(sorted(N))))


def chief_chain(table):
    kernels = [frozenset({0})]
    K = kernels[0]
    while len(K) < table.n:
        Q, proj, _ = table.quotient(K)
        M = minimal_normal_subgroup(Q)
        K = _elements(np.isin(proj, list(M)))
        kernels.append(K)
    return list(reversed(kernels))


def chief_series(table, cap=DEFAULT_ORDER_CAP, spec=""):
    """Extension tower along a chief series of a solvable multiplication
    table."""
    if table.n > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (table.n, cap))
    if not table.is_solvable():
        raise GroupSpecError("group is not solvable")
    return tower_from_chief_chain(table, chief_chain(table), spec=spec or table.name)


# ---------------------------------------------------------------------------
# Built-in groups.  Every family is one of three constructions on explicit
# coordinates whose element order makes the lowest-index sections the
# textbook ones: a metacyclic group, a plane Z_q^2 extended by a smaller
# build, or a direct product.  Each is run through the generic chief-chain
# extraction.


def _cumulative_divisors(n):
    """1 < d1 < d2 ... = n stepping by one prime at a time, ascending
    primes."""
    primes = [p for p, k in sorted(factorize(n).items()) for _ in range(k)]
    return [math.prod(primes[:i]) for i in range(1, len(primes) + 1)]


def _metacyclic_parts(s, r, u, t=0):
    """M(s,r,u) = <x, y | x^s, y^r = x^t, y x y^-1 = x^u> on coordinates
    (x, y) as its multiplication array, name and chain, the chain through
    <x> and its cyclic subgroups; u must be invertible mod s with u^r = 1,
    and y must fix x^t (t u = t mod s).  So the product adds t to x when
    y1 + y2 >= r.  Z(n) is M(n,1,1), D(2m) is M(m,2,m-1) and Dstar(4m) is
    M(2m,2,2m-1) with t = m."""
    upow = np.array([pow(u, y, s) for y in range(r)])

    def mulfn(a, b):
        (x1, y1), (x2, y2) = a, b
        return ((x1 + upow[y1] * x2 + t * (y1 + y2 >= r)) % s, (y1 + y2) % r)

    x, y = _coords((s, r))
    chain = [frozenset(range(s * r))]
    for d in _cumulative_divisors(r):
        chain.append(_elements(y % d == 0))
    for d in _cumulative_divisors(s):
        chain.append(_elements((y == 0) & (x % d == 0)))
    return _coords_array((s, r), mulfn), "M(%d,%d,%d,%d)" % (s, r, u, t), chain


def _metacyclic_data(s, r, u, t=0):
    """The (table, chain) of M(s,r,u) with y^r = x^t, as in
    ``_metacyclic_parts``."""
    mul, name, chain = _metacyclic_parts(s, r, u, t)
    return FiniteGroupTable(mul, name=name), chain


def _plane_data(q, top, sig):
    """Z_q^2 extended by T on coordinates (e0, e1, t), numbered
    e0 + q e1 + q^2 t: ``top`` is the multiplication array, name and chain
    of T (whose group checks the plane's own table makes), and t acts on
    the plane by the 2x2 matrix sig[t] over Z_q, so
    (a, t1)(b, t2) = (a + sig[t1] b, t1 t2).  The chain is the preimages of
    T's chain, the last of them the plane, then the identity."""
    tmul, tname, chain = top
    sig = np.asarray(sig)

    def mulfn(a, b):
        (a0, a1, t1), (b0, b1, t2) = a, b
        m = sig[t1]
        return ((a0 + m[..., 0, 0] * b0 + m[..., 0, 1] * b1) % q,
                (a1 + m[..., 1, 0] * b0 + m[..., 1, 1] * b1) % q, tmul[t1, t2])

    table = table_from_coords((q, q, len(tmul)), mulfn, name="Z%d^2.%s" % (q, tname))
    chain = [frozenset(k * q * q + e for k in K for e in range(q * q)) for K in chain]
    return table, chain + [frozenset({0})]


def _v_q2p_data(q, p, r):
    """V(q,p,r): the plane Z_q^2 under D(2p), its element w + p v (the
    rotation w, then v reflections) acting by B^w C^v with
    B = ((r, 1), (-1, 0)) and C the coordinate swap.  B is never the
    identity, so B^p = 1 gives it order p."""
    if factorize(q) != {q: 1} or factorize(p) != {p: 1}:
        raise GroupSpecError("V(q,p,r) needs primes q, p")
    B = np.array([[r % q, 1], [q - 1, 0]])
    rot = [np.eye(2, dtype=np.int64)]
    for _ in range(p):
        rot.append(rot[-1] @ B % q)
    rot = np.array(rot)
    if (rot[p] != np.eye(2)).any():
        raise GroupSpecError("V(q,p,r): rotation matrix does not have order %d" % p)
    sig = np.concatenate([rot[:p], rot[:p, :, ::-1]])  # B^w C swaps B^w's columns
    return _plane_data(q, _metacyclic_parts(p, 2, p - 1), sig)


def _product_data(d1, d2):
    t1, c1 = d1
    t2, c2 = d2
    n2 = t2.n
    # (a1, b1)(a2, b2) = (a1 a2, b1 b2), with (a, b) numbered a * n2 + b
    mul = t1.mul[:, None, :, None] * n2 + t2.mul[None, :, None, :]
    table = FiniteGroupTable(mul.reshape(t1.n * n2, t1.n * n2),
                             name="%sx%s" % (t1.name, t2.name))
    chain = [frozenset(a * n2 + b for a in K for b in range(n2)) for K in c1]
    chain += [frozenset(b for b in K) for K in c2[1:]]
    return table, chain


_FACTOR_RE = re.compile(
    r"\s*([A-Za-z_]+)\s*(?:\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\))?\s*(?:\^\s*([0-9]+))?\s*$"
)


def _require(ok, message):
    if not ok:
        raise GroupSpecError(message)


def _dihedral(n):
    _require(n >= 2 and n % 2 == 0, "D(n) needs even n >= 2")
    return n, lambda: _metacyclic_data(n // 2, 2, n // 2 - 1)


def _binary_dihedral(n):
    _require(n >= 4 and n % 4 == 0, "Dstar(n) needs 4 | n")
    return n, lambda: _metacyclic_data(n // 2, 2, n // 2 - 1, n // 4)


def _quaternion(n):
    _require(n >= 8 and n & (n - 1) == 0, "Q(n) needs a 2-power n >= 8")
    return _binary_dihedral(n)


def _metacyclic(s, r, u):
    _require(s >= 1 and r >= 1, "M(s,r,u) needs s, r >= 1")
    _require(math.gcd(u, s) == 1 and pow(u, r, s) == 1 % s,
             "M(s,r,u) needs u invertible mod s with u^r = 1")
    return s * r, lambda: _metacyclic_data(s, r, u)


def _cyclic(n):
    _require(n >= 1, "Z(n) needs n >= 1")
    return _metacyclic(n, 1, 1)


def _symmetric(k):
    _require(k in (3, 4), "only S(3) and S(4) are built in")
    return _dihedral(6) if k == 3 else _v_q2p(2, 3, 1)


def _alternating(k):
    _require(k == 4, "only A(4) is built in")
    R = np.array([[0, 1], [1, 1]])
    return 12, lambda: _plane_data(2, _metacyclic_parts(3, 1, 1),
                                   [np.eye(2, dtype=int), R, R @ R % 2])


def _v_q2p(q, p, r):
    # the primes are checked in the build: trial division of a huge p would not end
    return 2 * q * q * p, lambda: _v_q2p_data(q, p, r)


# Every spec family: a function of the factor's parameters that checks them
# and returns the factor's order with a function building its (table, chain).
_FAMILIES = {"Z": _cyclic, "D": _dihedral, "DSTAR": _binary_dihedral, "Q": _quaternion,
             "S": _symmetric, "A": _alternating, "M": _metacyclic, "V": _v_q2p}


def builtin_group(spec, cap=DEFAULT_ORDER_CAP):
    """Build an extension tower from a group spec like ``D(8)``,
    ``Z(3)*S(4)`` or ``Z(2)^3``.  The parts F^k of the spec are checked and
    charged to the order cap one by one before any table is built; a
    nontrivial F has |F|^k > cap for k > cap.bit_length(), so no more copies
    are charged or built."""
    builds = []
    order = 1  # of the parts charged so far
    parts = spec.split("*")
    for i, part in enumerate(parts):
        m = _FACTOR_RE.match(part)
        if m is None:
            raise GroupSpecError("cannot parse group spec %r" % part)
        name, params, power = m.groups()
        try:
            params = tuple(int(x) for x in params.split(",")) if params else ()
            power = int(power or 1)
        except ValueError:  # int() refuses more digits than its limit
            raise GroupSpecError("a number in group spec %r has too many digits" % part)
        family = _FAMILIES.get(name.upper())
        if family is None:
            raise GroupSpecError("unknown group family %r" % name)
        try:
            factor_order, build = family(*params)
        except TypeError:
            raise GroupSpecError("wrong parameter count for %s%r" % (name, params))
        copies = min(power, cap.bit_length() + 1 if factor_order > 1 else 1)
        order *= factor_order**copies
        if order > cap:
            # the spec's order, a lower bound when parts are left or copies
            # not charged, and as 2^k past the digits str() may print
            big = order.bit_length() > 8192
            exact = not big and i == len(parts) - 1 and (copies == power or factor_order == 1)
            raise CapExceeded("group order %s%s exceeds cap %d" % (
                "" if exact else "at least ", "2^%d" % (order.bit_length() - 1) if big else order,
                cap))
        builds += [build] * copies
    if not builds:
        raise GroupSpecError("empty group spec %r" % spec)
    data = builds[0]()
    for build in builds[1:]:
        data = _product_data(data, build())
    table, chain = data
    return tower_from_chief_chain(table, chain, spec=spec)


# Catalog used throughout the test suite: solvable groups of order <= 48.
CATALOG_SPECS = [
    "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(6)", "Z(2)^2", "Z(8)", "Z(2)*Z(4)",
    "Z(2)^3", "Z(9)", "Z(3)^2", "Z(12)", "Z(2)*Z(6)",
    "D(6)", "D(8)", "D(10)", "D(12)", "D(14)", "D(16)", "D(18)", "D(20)",
    "D(24)", "D(48)",
    "Q(8)", "Dstar(12)", "Q(16)", "Dstar(20)", "Dstar(24)", "Dstar(48)",
    "A(4)", "S(4)", "V(2,3,1)",
    "M(5,4,2)", "M(7,3,2)", "M(7,6,3)", "M(9,3,4)",
    "Z(3)*D(8)", "Z(2)*A(4)", "Z(2)*S(4)",
]

NILPOTENT_CATALOG_SPECS = [
    "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(2)^2", "Z(8)", "Z(2)*Z(4)", "Z(2)^3",
    "Z(9)", "Z(3)^2", "Z(16)", "Z(4)^2", "Z(2)^2*Z(4)", "Z(2)^4", "Z(27)",
    "D(8)", "Q(8)", "D(16)", "Q(16)", "Z(2)*D(8)", "Z(2)*Q(8)", "Q(32)",
    "Z(6)", "Z(12)", "Z(3)*D(8)", "Z(3)*Q(8)", "Z(2)*Z(6)",
]
