"""Finite solvable groups as explicit extension towers carrying per-layer
monodromy and 2-cocycle data, plus multiplication-table utilities."""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass

import numpy as np

from .cohomology import (
    TwistedAction,
    eval_word_in_table,
    nullspace_dim_mod_prime,
    twisted_z1_count,
)
from .presentations import Presentation, factorize, word_inverse, word_str


class GroupSpecError(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


DEFAULT_ORDER_CAP = 512
# most candidate image tuples a bijective generator-image search may try
BIJECTIVE_TUPLE_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Multiplication tables.  Elements are 0..n-1 and the identity is always 0.


class FiniteGroupTable:
    def __init__(self, mul, name=""):
        self.mul = [list(row) for row in mul]
        self.n = len(self.mul)
        self.name = name
        for i in range(self.n):
            if self.mul[0][i] != i or self.mul[i][0] != i:
                raise GroupSpecError("element 0 is not an identity")
        self.inv = [None] * self.n
        for i in range(self.n):
            row = self.mul[i]
            for j in range(self.n):
                if row[j] == 0:
                    self.inv[i] = j
                    break
            if self.inv[i] is None or self.mul[self.inv[i]][i] != 0:
                raise GroupSpecError("element %d has no two-sided inverse" % i)
        self._arr = None
        self._conj = None
        self._orders = None
        self._aut = None

    def __len__(self):
        return self.n

    def as_array(self):
        if self._arr is None:
            self._arr = np.array(self.mul, dtype=np.int64)
        return self._arr

    def conjugation_table(self):
        """int32 array with conj[b, x] = b x b^-1, built on first use."""
        if self._conj is None:
            arr = self.as_array()
            inv = np.array(self.inv, dtype=np.int64)
            self._conj = arr[arr, inv[:, None]].astype(np.int32)
        return self._conj

    def check_associativity(self, rng=None):
        """Exhaustive for order <= 64, randomly sampled above."""
        n = self.n
        mul = self.mul
        if n <= 64:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = rng or random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(20000)
            )
        for a, b, c in triples:
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise GroupSpecError("multiplication table is not associative")

    def order_of(self, x):
        if self._orders is None:
            self._orders = [None] * self.n
        if self._orders[x] is None:
            y = x
            k = 1
            while y != 0:
                y = self.mul[y][x]
                k += 1
            self._orders[x] = k
        return self._orders[x]

    def power(self, x, k):
        if k < 0:
            x, k = self.inv[x], -k
        y = 0
        for _ in range(k):
            y = self.mul[y][x]
        return y

    def is_abelian(self):
        mul = self.mul
        return all(mul[a][b] == mul[b][a] for a in range(self.n) for b in range(a))

    def closure(self, gens):
        seen = {0}
        frontier = [0]
        gl = sorted(set(gens))
        mul = self.mul
        while frontier:
            new = []
            for x in frontier:
                for g in gl:
                    y = mul[x][g]
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return frozenset(seen)

    def conjugates(self, x):
        mul = self.mul
        inv = self.inv
        return {mul[mul[g][x]][inv[g]] for g in range(self.n)}

    def normal_closure(self, xs):
        conj = set()
        for x in xs:
            conj |= self.conjugates(x)
        return self.closure(conj)

    def is_normal(self, elems):
        s = set(elems)
        mul = self.mul
        inv = self.inv
        for g in range(self.n):
            for x in elems:
                if mul[mul[g][x]][inv[g]] not in s:
                    return False
        return True

    def commutator(self, a, b):
        mul = self.mul
        inv = self.inv
        return mul[mul[inv[a]][inv[b]]][mul[a][b]]

    def derived_subgroup(self, elems=None):
        elems = list(elems) if elems is not None else list(range(self.n))
        comms = {self.commutator(a, b) for a in elems for b in elems}
        return self.closure(comms)

    def is_solvable(self):
        cur = frozenset(range(self.n))
        while True:
            nxt = self.derived_subgroup(cur)
            if nxt == cur:
                return len(cur) == 1
            cur = nxt

    def center_set(self):
        mul = self.mul
        return frozenset(
            z for z in range(self.n) if all(mul[z][g] == mul[g][z] for g in range(self.n))
        )

    def is_nilpotent(self):
        K = frozenset({0})
        while len(K) < self.n:
            Q, proj, _ = self.quotient(K)
            Zq = Q.center_set()
            if len(Zq) == 1:
                return False
            K = frozenset(x for x in range(self.n) if proj[x] in Zq)
        return True

    def quotient(self, normal):
        """Quotient by a normal subgroup given as an element set.  Cosets are
        indexed in order of their smallest element, so coset 0 is the image
        of the identity."""
        ns = sorted(normal)
        proj = [None] * self.n
        reps = []
        mul = self.mul
        for x in range(self.n):
            if proj[x] is None:
                idx = len(reps)
                reps.append(x)
                for h in ns:
                    proj[mul[x][h]] = idx
        k = len(reps)
        table = [[proj[mul[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
        return FiniteGroupTable(table, name=self.name and self.name + "/N"), proj, reps

    def subtable(self, elems):
        """Table of a subgroup (elements must be closed and contain 0)."""
        sub = sorted(elems)
        pos = {x: i for i, x in enumerate(sub)}
        table = [[pos[self.mul[a][b]] for b in sub] for a in sub]
        return FiniteGroupTable(table), sub

    def relabel(self, perm):
        """Conjugate the table by a permutation of 1..n-1 (perm[0] must be 0)."""
        inv = [None] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        table = [
            [inv[self.mul[perm[a]][perm[b]]] for b in range(self.n)] for a in range(self.n)
        ]
        return FiniteGroupTable(table, name=self.name)


TRIVIAL_TABLE = FiniteGroupTable([[0]], name="1")


def table_from_coords(elements, mulfn, name=""):
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mulfn(a, b)] for b in elements] for a in elements]
    return FiniteGroupTable(table, name=name)


def generating_sequence(table):
    """Greedy generating sequence: highest order first, smallest index on
    ties."""
    gens = []
    cur = {0}
    while len(cur) < table.n:
        best = None
        for x in range(table.n):
            if x not in cur:
                key = (-table.order_of(x), x)
                if best is None or key < best:
                    best = key
        gens.append(best[1])
        cur = set(table.closure(gens))
    return gens


def bfs_expressions(table, gens):
    """Breadth-first expressions: triples (elem, parent, genpos) with
    elem = parent * gens[genpos], covering every element except the
    identity, in discovery order."""
    links = []
    seen = {0}
    frontier = [0]
    mul = table.mul
    while frontier:
        new = []
        for x in frontier:
            for gp, g in enumerate(gens):
                y = mul[x][g]
                if y not in seen:
                    seen.add(y)
                    links.append((y, x, gp))
                    new.append(y)
        frontier = new
    if len(seen) != table.n:
        raise GroupSpecError("generators do not generate")
    return links


# ---------------------------------------------------------------------------
# Morphism search by generator images, checked on all pairs.


def _fill_map(table, links, gens, images, dst):
    f = np.zeros(table.n, dtype=np.int64)
    dmul = dst.mul
    for elem, parent, gp in links:
        f[elem] = dmul[f[parent]][images[gp]]
    return f


def iter_homomorphisms(src, dst, bijective=False):
    """All homomorphisms src -> dst as image arrays, by brute generator-image
    search with the order-divisibility pruning.  A bijective search raises
    CapExceeded before it starts if it would try more than
    BIJECTIVE_TUPLE_CAP candidate tuples."""
    gens = generating_sequence(src)
    links = bfs_expressions(src, gens)
    sarr = src.as_array()
    darr = dst.as_array()
    cands = []
    for g in gens:
        o = src.order_of(g)
        if bijective:
            cands.append([h for h in range(dst.n) if dst.order_of(h) == o])
        else:
            cands.append([h for h in range(dst.n) if o % dst.order_of(h) == 0])
    tuples = math.prod(len(c) for c in cands)
    if bijective and tuples > BIJECTIVE_TUPLE_CAP:
        raise CapExceeded("isomorphism search from a group of order %d would try %d candidate "
                          "image tuples (cap %d)" % (src.n, tuples, BIJECTIVE_TUPLE_CAP))
    for images in itertools.product(*cands):
        f = _fill_map(src, links, gens, images, dst)
        if not (darr[f[:, None], f[None, :]] == f[sarr]).all():
            continue
        if bijective and len(set(f.tolist())) != src.n:
            continue
        yield f


def aut_order(table, cap=DEFAULT_ORDER_CAP):
    """|Aut| by counting bijective endomorphisms, once per table: the count
    is kept on the table, and ``cap`` is checked on every call."""
    if table.n > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (table.n, cap))
    if table._aut is None:
        table._aut = sum(1 for _ in iter_homomorphisms(table, table, bijective=True))
    return table._aut


def find_isomorphism(t1, t2):
    if t1.n != t2.n:
        return None
    if sorted(t1.order_of(x) for x in range(t1.n)) != sorted(
        t2.order_of(x) for x in range(t2.n)
    ):
        return None
    for f in iter_homomorphisms(t1, t2, bijective=True):
        return f.tolist()
    return None


def is_isomorphic(t1, t2):
    return find_isomorphism(t1, t2) is not None


# ---------------------------------------------------------------------------
# Elementary abelian layers and extension towers.
#
# A layer extends the group built so far (its base B) by E = Z_q^s, with
# monodromy sigma: B -> GL(s, q) and a normalized 2-cocycle chi: B x B -> E.
# Elements of the extension are pairs (e, b), encoded as e * |B| + b, with
#   (e1, b1) (e2, b2) = (e1 + sigma_{b1} e2 + chi(b1, b2),  b1 b2).


class ElementaryLayer:
    def __init__(self, q, s, base, sigma, chi):
        self.q = q
        self.s = s
        self.base = base
        self.sigma = sigma
        self.chi = chi
        self.E = q**s
        # little-endian: num = sum v[k] q^k
        self._vecs = []
        for num in range(self.E):
            v = []
            x = num
            for _ in range(s):
                v.append(x % q)
                x //= q
            self._vecs.append(tuple(v))
        self._nums = {v: i for i, v in enumerate(self._vecs)}
        self.sigma_perm = [
            [self.vec_num(self.apply_sigma(b, v)) for v in self._vecs]
            for b in range(len(base))
        ]
        self.chi_num = [[self._nums[chi[b1][b2]] for b2 in range(len(base))]
                        for b1 in range(len(base))]
        self.group = self._build_group()
        # derived constants
        self.zeta = int(any(self.sigma[b] != _identity_matrix(s) for b in range(len(base))))
        self.kappa = self._commutant_dim()
        self.sections = self._complement_sections()
        self.complements = len(self.sections)
        self.c_chi = int(self.complements > 0)
        self.alpha = None  # filled by the tower

    def num_vec(self, num):
        return self._vecs[num]

    def vec_num(self, vec):
        return self._nums[tuple(x % self.q for x in vec)]

    def apply_sigma(self, b, vec):
        sig = self.sigma[b]
        q = self.q
        return tuple(
            sum(sig[a][c] * vec[c] for c in range(self.s)) % q for a in range(self.s)
        )

    def enc(self, e_num, b):
        return e_num * len(self.base) + b

    def dec(self, idx):
        return divmod(idx, len(self.base))

    def _build_group(self):
        nB = len(self.base)
        E = self.E
        q = self.q
        vecs = self._vecs
        nums = self._nums
        add = [[nums[tuple((a + b) % q for a, b in zip(vecs[i], vecs[j]))] for j in range(E)]
               for i in range(E)]
        bmul = self.base.mul
        table = [[0] * (E * nB) for _ in range(E * nB)]
        for e1 in range(E):
            for b1 in range(nB):
                row = table[e1 * nB + b1]
                sp = self.sigma_perm[b1]
                ch = self.chi_num[b1]
                add1 = add[e1]
                bm = bmul[b1]
                for e2 in range(E):
                    x = add1[sp[e2]]
                    for b2 in range(nB):
                        row[e2 * nB + b2] = add[x][ch[b2]] * nB + bm[b2]
        name = "Z%d^%d.%s" % (self.q, self.s, self.base.name or "B")
        return FiniteGroupTable(table, name=name)

    def _commutant_dim(self):
        """log_q |End(E)| over the monodromy image: matrices commuting with
        every sigma(b)."""
        s, q = self.s, self.q
        gens = generating_sequence(self.base) if len(self.base) > 1 else []
        rows = []
        for g in gens:
            A = self.sigma[g]
            # T A - A T = 0, unknowns T_{ab} flattened as a*s+b
            for i in range(s):
                for j in range(s):
                    row = [0] * (s * s)
                    for k in range(s):
                        row[i * s + k] = (row[i * s + k] + A[k][j]) % q
                        row[k * s + j] = (row[k * s + j] - A[i][k]) % q
                    rows.append(row)
        return nullspace_dim_mod_prime(rows, s * s, q)

    def _complement_sections(self):
        """Complements of E in the extension = homomorphic sections of the
        projection, enumerated by generator images in the fibers.  One row
        per section: row[b] is the image of the base element b.  The
        non-surjective lifts of an epimorphism with images (b_i) are exactly
        the rows' restrictions (row[b_i])."""
        base = self.base
        nB = len(base)
        if nB == 1:
            return np.zeros((1, 1), dtype=np.int32)
        gens = generating_sequence(base)
        links = bfs_expressions(base, gens)
        ext = self.group
        earr = ext.as_array()
        barr = base.as_array()
        rows = []
        for combo in itertools.product(range(self.E), repeat=len(gens)):
            images = [self.enc(e, g) for e, g in zip(combo, gens)]
            f = _fill_map(base, links, gens, images, ext)
            if (earr[f[:, None], f[None, :]] == f[barr]).all():
                rows.append(f)
        return np.array(rows, dtype=np.int32).reshape(len(rows), nB)

    def verify(self, rng=None):
        base = self.base
        nB = len(base)
        q, s = self.q, self.s
        for b1 in range(nB):
            for b2 in range(nB):
                lhs = _matmul_mod(self.sigma[b1], self.sigma[b2], q)
                if lhs != self.sigma[base.mul[b1][b2]]:
                    raise GroupSpecError("monodromy is not a homomorphism")
        for b in range(nB):
            if any(self.chi[0][b]) or any(self.chi[b][0]):
                raise GroupSpecError("cocycle is not normalized")
        if nB <= 48:
            triples = itertools.product(range(nB), repeat=3)
        else:
            rng = rng or random.Random(1)
            triples = ((rng.randrange(nB), rng.randrange(nB), rng.randrange(nB))
                       for _ in range(20000))
        mul = base.mul
        for b1, b2, b3 in triples:
            lhs = self.apply_sigma(b1, self.chi[b2][b3])
            v = tuple(
                (lhs[a] - self.chi[mul[b1][b2]][b3][a] + self.chi[b1][mul[b2][b3]][a]
                 - self.chi[b1][b2][a]) % q
                for a in range(s)
            )
            if any(v):
                raise GroupSpecError("2-cocycle identity fails")
        if s > 1 and not self._is_irreducible():
            raise GroupSpecError("layer kernel is not a minimal normal subgroup")

    def _is_irreducible(self):
        """No proper nonzero subspace of E invariant under the monodromy
        image."""
        q, s = self.q, self.s
        gens = generating_sequence(self.base) if len(self.base) > 1 else []
        mats = [self.sigma[g] for g in gens]
        if not mats:
            return s == 1
        for num in range(1, self.E):
            span = {0}
            frontier = [num]
            while frontier:
                v = frontier.pop()
                if v in span:
                    continue
                # span stays a subspace: adjoin all translates u + k v
                vv = self.num_vec(v)
                new = set()
                for u in span:
                    uu = self.num_vec(u)
                    for k in range(1, q):
                        w = tuple((uu[a] + k * vv[a]) % q for a in range(s))
                        new.add(self.vec_num(w))
                span |= new
                for A in mats:
                    img = self.vec_num(self.apply_sigma_mat(A, self.num_vec(v)))
                    if img not in span:
                        frontier.append(img)
            if len(span) < self.E:
                return False
        return True

    def apply_sigma_mat(self, A, vec):
        q = self.q
        return tuple(
            sum(A[a][c] * vec[c] for c in range(self.s)) % q for a in range(self.s)
        )


def _identity_matrix(s):
    return tuple(tuple(int(i == j) for j in range(s)) for i in range(s))


def _matmul_mod(A, B, q):
    s = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(s)) % q for j in range(s))
        for i in range(s)
    )


class ExtensionTower:
    """A group presented as iterated elementary abelian extensions, bottom
    group trivial.  layers[i] extends the group built from layers[0..i-1]."""

    def __init__(self, layers, spec="", source_table=None, source_iso=None):
        self.layers = layers
        self.spec = spec
        self.source_table = source_table
        self.source_iso = source_iso
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
        """Standard generators of the level-i group: lifts of lower-level
        generators plus the kernel basis of each layer."""
        gens = []
        for j in range(i):
            lay = self.layers[j]
            gens = [lay.enc(0, g) for g in gens]
            for k in range(lay.s):
                gens.append(lay.enc(lay.vec_num(tuple(int(t == k) for t in range(lay.s))), 0))
        return gens

    def project(self, idx, from_level, to_level):
        for j in range(from_level - 1, to_level - 1, -1):
            idx = self.layers[j].dec(idx)[1]
        return idx

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
                e = lay.dec(self.project(x, level, j + 1))[0]
                for g, k in enumerate(lay.num_vec(e), first):
                    word += [(g, 1)] * k
                    for _ in range(k):
                        x = mul[inv[gens[g]]][x]
                first += lay.s
            return tuple(word)

        qs = [lay.q for lay in self.layers[:level] for _ in range(lay.s)]
        relators = [((i, 1),) * q + word_inverse(normal_word(table.power(g, q)))
                    for i, (g, q) in enumerate(zip(gens, qs))]
        for i, k in itertools.combinations(range(len(gens)), 2):
            x = mul[mul[inv[gens[i]]][gens[k]]][gens[i]]
            relators.append(((i, -1), (k, 1), (i, 1)) + word_inverse(normal_word(x)))
        P = Presentation(tuple("g%d" % (i + 1) for i in range(len(gens))), tuple(relators))
        for rel in P.relators:
            if eval_word_in_table(table, gens, rel) != 0:
                raise ArithmeticError("the generators of level %d do not satisfy %s"
                                      % (level, word_str(rel, P.generators)))
        return P

    def element_vectors(self, idx):
        """Per-layer kernel coordinates of a top-group element, bottom layer
        first."""
        out = []
        for j in range(len(self.layers) - 1, -1, -1):
            e, idx = self.layers[j].dec(idx)
            out.append(self.layers[j].num_vec(e))
        return tuple(reversed(out))

    def element_from_vectors(self, vecs):
        idx = 0
        for j, lay in enumerate(self.layers):
            idx = lay.enc(lay.vec_num(vecs[j]), idx)
        return idx

    def chain_in_group(self):
        """The chief chain as subsets of the top group, largest first."""
        top = len(self.layers)
        n = len(self.group)
        chain = []
        for i in range(top + 1):
            chain.append(frozenset(x for x in range(n) if self.project(x, top, i) == 0))
        return chain

    def mul_structural(self, x, y):
        """Product computed by the layer formula rather than the table."""
        return _structural_mul(self.layers, x, y)

    def inv_structural(self, x):
        """Inverse by the pair formula (-sigma_{b^-1} a - chi(b^-1, b), b^-1)."""
        return _structural_inv(self.layers, x)

    def verify(self):
        for lay in self.layers:
            lay.verify()

    def layer_constants(self, level):
        lay = self.layers[level]
        return (lay.zeta, lay.c_chi, lay.kappa, lay.alpha)

    def _fill_alphas(self):
        for i, lay in enumerate(self.layers):
            gens = self.level_gens(i + 1)
            count = 0
            for j in range(i + 1):
                other = self.layers[j]
                if not other.c_chi:
                    continue
                if (other.q, other.s) != (lay.q, lay.s):
                    continue
                acts_i = [lay.sigma[self.project(g, i + 1, i)] for g in gens]
                acts_j = [other.sigma[self.project(g, i + 1, j)] for g in gens]
                if intertwiner_space_dim(acts_i, acts_j, lay.q, lay.s) > 0:
                    count += 1
            lay.alpha = count


def _structural_mul(layers, x, y):
    if not layers:
        return 0
    lay = layers[-1]
    e1, b1 = lay.dec(x)
    e2, b2 = lay.dec(y)
    v = tuple(
        (a + b + c) % lay.q
        for a, b, c in zip(
            lay.num_vec(e1), lay.apply_sigma(b1, lay.num_vec(e2)), lay.chi[b1][b2]
        )
    )
    return lay.enc(lay.vec_num(v), _structural_mul(layers[:-1], b1, b2))


def _structural_inv(layers, x):
    if not layers:
        return 0
    lay = layers[-1]
    e, b = lay.dec(x)
    binv = lay.base.inv[b]
    v = lay.apply_sigma(binv, lay.num_vec(e))
    v = tuple((-a - c) % lay.q for a, c in zip(v, lay.chi[binv][b]))
    return lay.enc(lay.vec_num(v), _structural_inv(layers[:-1], b))


def intertwiner_space_dim(acts_a, acts_b, q, s):
    """Dimension of {T : T A_g = B_g T for all g} over Z_q."""
    rows = []
    for A, B in zip(acts_a, acts_b):
        for i in range(s):
            for j in range(s):
                row = [0] * (s * s)
                for k in range(s):
                    row[i * s + k] = (row[i * s + k] + A[k][j]) % q
                    row[k * s + j] = (row[k * s + j] - B[i][k]) % q
                rows.append(row)
    return nullspace_dim_mod_prime(rows, s * s, q)


def _elementary_structure(Q, kset):
    """Identify an elementary abelian subgroup of Q: returns (q, s, basis,
    elem_of_num, num_of_elem)."""
    size = len(kset)
    fac = factorize(size)
    if len(fac) != 1:
        raise GroupSpecError("chief factor is not elementary abelian")
    (q, s), = fac.items()
    elems = sorted(kset)
    for x in elems:
        if x and Q.order_of(x) != q:
            raise GroupSpecError("chief factor is not elementary abelian")
    basis = []
    span = {0}
    for x in elems:
        if x not in span:
            basis.append(x)
            new = set(span)
            for u in span:
                y = x
                for _ in range(q - 1):
                    new.add(Q.mul[u][y])
                    y = Q.mul[y][x]
            span = new
    if len(basis) != s or len(span) != size:
        raise GroupSpecError("chief factor is not elementary abelian")
    # little-endian coordinates over the basis
    elem_of_num = []
    num_of_elem = {}
    for num in range(q**s):
        x = 0
        t = num
        for b in basis:
            c = t % q
            t //= q
            x = Q.mul[x][Q.power(b, c)]
        elem_of_num.append(x)
        num_of_elem[x] = num
    if len(num_of_elem) != size:
        raise GroupSpecError("kernel coordinates are not faithful")
    return q, s, basis, elem_of_num, num_of_elem


def tower_from_chief_chain(table, chain, spec=""):
    """Build an extension tower from a descending chain of normal subgroups
    with elementary abelian quotients.  Set sections always pick the coset
    with the lowest element index."""
    chain = [frozenset(c) for c in chain]
    if chain[0] != frozenset(range(table.n)) or chain[-1] != frozenset({0}):
        raise GroupSpecError("chain must run from the full group to the identity")
    layers = []
    psi = [0]  # nested index -> index in table/chain[i] quotient
    prev_q = TRIVIAL_TABLE
    for i in range(len(chain) - 1):
        Q, proj, reps = table.quotient(chain[i + 1])
        kset = sorted({proj[t] for t in chain[i]})
        q, s, basis, elem_of_num, num_of_elem = _elementary_structure(Q, kset)
        # map Q -> previous quotient, and its minimal-index section
        prevproj = table.quotient(chain[i])[1] if i > 0 else [0] * table.n
        down = [prevproj[reps[x]] for x in range(Q.n)]
        sec = {}
        for x in range(Q.n):  # ascending: first hit is the lowest index
            sec.setdefault(down[x], x)
        sec_nested = [sec[psi[b]] for b in range(prev_q.n)]
        kmask = set(kset)
        sigma = []
        chi = []
        for b in range(prev_q.n):
            m = sec_nested[b]
            minv = Q.inv[m]
            cols = []
            for bs in basis:
                c = Q.mul[Q.mul[m][bs]][minv]
                if c not in kmask:
                    raise GroupSpecError("chain member is not normal")
                cols.append(_num_to_vec(num_of_elem[c], q, s))
            sigma.append(tuple(tuple(cols[j][a] for j in range(s)) for a in range(s)))
        for b1 in range(prev_q.n):
            x1 = sec_nested[b1]
            row = []
            for b2 in range(prev_q.n):
                x2 = sec_nested[b2]
                x12 = sec_nested[prev_q.mul[b1][b2]]
                c = Q.mul[Q.mul[x1][x2]][Q.inv[x12]]
                if c not in kmask:
                    raise GroupSpecError("section defect leaves the kernel")
                row.append(_num_to_vec(num_of_elem[c], q, s))
            chi.append(row)
        lay = ElementaryLayer(q, s, prev_q, sigma, chi)
        lay.verify()
        psi = [Q.mul[elem_of_num[e]][sec_nested[b]]
               for e in range(lay.E) for b in range(prev_q.n)]
        # psi is indexed by enc(e, b) = e * |base| + b
        prev_q = lay.group
        layers.append(lay)
    tower = ExtensionTower(layers, spec=spec, source_table=table, source_iso=psi)
    return tower


def _num_to_vec(num, q, s):
    v = []
    for _ in range(s):
        v.append(num % q)
        num //= q
    return tuple(v)


# ---------------------------------------------------------------------------
# Chief series of an arbitrary solvable table.


def minimal_normal_subgroup(table):
    """Deterministic minimal normal subgroup: normal closures of prime-order
    elements, minimal under inclusion, smallest first."""
    cands = set()
    for x in range(1, table.n):
        o = table.order_of(x)
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
        K = frozenset(x for x in range(table.n) if proj[x] in M)
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


def complement_count(tower, level):
    """Number of complements of the level's kernel, cross-checked three ways:
    direct section search, c_chi * |Z^1| of the base (from its power-conjugate
    presentation) and the Gaschuetz complement formula
    c_chi |E|^zeta q^{kappa(alpha-1)}."""
    lay = tower.layers[level]
    direct = lay.complements
    action = TwistedAction([lay.q] * lay.s, [lay.sigma[g] for g in tower.level_gens(level)])
    via_z1 = lay.c_chi * twisted_z1_count(tower.presentation(level), action)
    via_formula = lay.c_chi * (lay.E**lay.zeta) * lay.q ** (lay.kappa * (lay.alpha - 1))
    if not (direct == via_z1 == via_formula):
        raise ArithmeticError(
            "complement count mismatch: direct=%d z1=%d formula=%d"
            % (direct, via_z1, via_formula)
        )
    return direct


@dataclass
class GroupElement:
    """Element of an extension tower, as per-layer kernel coordinates."""

    tower: ExtensionTower
    index: int

    @property
    def vectors(self):
        return self.tower.element_vectors(self.index)

    def __mul__(self, other):
        if other.tower is not self.tower:
            raise ValueError("elements from different towers")
        return GroupElement(self.tower, self.tower.mul_structural(self.index, other.index))

    def inverse(self):
        return GroupElement(self.tower, self.tower.inv_structural(self.index))


# ---------------------------------------------------------------------------
# Built-in groups.  Each family is built on explicit coordinates whose
# element order makes the lowest-index sections the textbook ones, then run
# through the generic chief-chain extraction.


def _cumulative_divisors(n, primes_first=None):
    """1 < d1 < d2 ... = n stepping by one prime at a time, ascending primes,
    optionally forcing some primes first."""
    fac = factorize(n)
    seq = []
    if primes_first:
        for p in primes_first:
            seq += [p] * fac.pop(p, 0)
    for p in sorted(fac):
        seq += [p] * fac[p]
    out = []
    d = 1
    for p in seq:
        d *= p
        out.append(d)
    return out


def _cyclic_data(n):
    elements = list(range(n))
    mulfn = lambda a, b: (a + b) % n
    table = table_from_coords(elements, mulfn, name="Z%d" % n)
    chain = [frozenset(range(n))]
    for d in _cumulative_divisors(n):
        chain.append(frozenset(range(0, n, d)))
    return table, chain


def _dihedral_data(order):
    m = order // 2
    elements = [(u, v) for v in range(2) for u in range(m)]

    def mulfn(x, y):
        (u, v), (s, t) = x, y
        return ((u + (s if v == 0 else -s)) % m, (v + t) % 2)

    table = table_from_coords(elements, mulfn, name="D%d" % order)
    rot = frozenset(i for i, (u, v) in enumerate(elements) if v == 0)
    chain = [frozenset(range(order)), rot]
    for d in _cumulative_divisors(m):
        chain.append(frozenset(i for i, (u, v) in enumerate(elements) if v == 0 and u % d == 0))
    return table, chain


def _binary_dihedral_data(order):
    m = order // 4
    L = 2 * m

    def mulfn(x, y):
        (u, v), (s, t) = x, y
        return ((u + (s if v == 0 else -s) + (m if v and t else 0)) % L, (v + t) % 2)

    elements = [(u, v) for v in range(2) for u in range(L)]
    table = table_from_coords(elements, mulfn, name="Dstar%d" % order)
    a0 = factorize(m).get(2, 0)
    ds = [2**j for j in range(1, a0 + 2)]
    d = ds[-1]
    odd = m
    while odd % 2 == 0:
        odd //= 2
    for p in _cumulative_divisors(odd):
        ds.append(d * p)
    chain = [frozenset(range(order)),
             frozenset(i for i, (u, v) in enumerate(elements) if v == 0)]
    for dd in ds:
        chain.append(frozenset(i for i, (u, v) in enumerate(elements)
                               if v == 0 and u % dd == 0))
    return table, chain


_A4_MAT = ((0, 1), (1, 1))


def _vec2_apply(mat, e):
    return ((mat[0][0] * e[0] + mat[0][1] * e[1]) % 2, (mat[1][0] * e[0] + mat[1][1] * e[1]) % 2)


def _mat2_pow(mat, k, q):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = tuple(
            tuple(sum(out[i][t] * mat[t][j] for t in range(2)) % q for j in range(2))
            for i in range(2)
        )
    return out


def _alt4_data():
    elements = [(e0, e1, t) for t in range(3) for e1 in range(2) for e0 in range(2)]

    def mulfn(x, y):
        (a0, a1, t1), (b0, b1, t2) = x, y
        M = _mat2_pow(_A4_MAT, t1, 2)
        w = _vec2_apply(M, (b0, b1))
        return ((a0 + w[0]) % 2, (a1 + w[1]) % 2, (t1 + t2) % 3)

    table = table_from_coords(elements, mulfn, name="A4")
    V = frozenset(i for i, (e0, e1, t) in enumerate(elements) if t == 0)
    chain = [frozenset(range(12)), V, frozenset({0})]
    return table, chain


_S3_B = ((1, 1), (1, 0))
_S3_C = ((0, 1), (1, 0))


def _s3_sigma(w, v):
    M = _mat2_pow(_S3_B, w, 2)
    if v:
        M = tuple(
            tuple(sum(M[i][t] * _S3_C[t][j] for t in range(2)) % 2 for j in range(2))
            for i in range(2)
        )
    return M


def _sym4_data():
    elements = [(e0, e1, w, v) for v in range(2) for w in range(3)
                for e1 in range(2) for e0 in range(2)]

    def mulfn(x, y):
        (a0, a1, w1, v1), (b0, b1, w2, v2) = x, y
        u = _vec2_apply(_s3_sigma(w1, v1), (b0, b1))
        w = (w1 + (w2 if v1 == 0 else -w2)) % 3
        return ((a0 + u[0]) % 2, (a1 + u[1]) % 2, w, (v1 + v2) % 2)

    table = table_from_coords(elements, mulfn, name="S4")
    A4 = frozenset(i for i, e in enumerate(elements) if e[3] == 0)
    V = frozenset(i for i, e in enumerate(elements) if e[2] == 0 and e[3] == 0)
    chain = [frozenset(range(24)), A4, V, frozenset({0})]
    return table, chain


def _metacyclic_data(s, r, u):
    if s < 1 or r < 1:
        raise GroupSpecError("M(s,r,u) needs s, r >= 1")
    from math import gcd

    if gcd(u, s) != 1 or pow(u, r, s) != 1 % s:
        raise GroupSpecError("M(s,r,u) needs u invertible mod s with u^r = 1")
    elements = [(x, y) for y in range(r) for x in range(s)]

    def mulfn(a, b):
        (x1, y1), (x2, y2) = a, b
        return ((x1 + pow(u, y1, s) * x2) % s, (y1 + y2) % r)

    table = table_from_coords(elements, mulfn, name="M(%d,%d,%d)" % (s, r, u))
    chain = [frozenset(range(s * r))]
    for d in _cumulative_divisors(r):
        chain.append(frozenset(i for i, (x, y) in enumerate(elements) if y % d == 0))
    for d in _cumulative_divisors(s):
        chain.append(frozenset(i for i, (x, y) in enumerate(elements)
                               if y == 0 and x % d == 0))
    return table, chain


def _v_q2p_data(q, p, rparam):
    if len(factorize(q)) != 1 or q != min(factorize(q)) or len(factorize(p)) != 1:
        raise GroupSpecError("V(q,p,r) needs primes q, p")
    B = ((rparam % q, 1), ((q - 1) % q, 0))
    if _mat2_pow(B, p, q) != ((1, 0), (0, 1)) or B == ((1, 0), (0, 1)):
        raise GroupSpecError("V(q,p,r): rotation matrix does not have order %d" % p)
    C = ((0, 1), (1, 0))

    def sig(w, v):
        M = _mat2_pow(B, w, q)
        if v:
            M = tuple(
                tuple(sum(M[i][t] * C[t][j] for t in range(2)) % q for j in range(2))
                for i in range(2)
            )
        return M

    elements = [(e0, e1, w, v) for v in range(2) for w in range(p)
                for e1 in range(q) for e0 in range(q)]

    def mulfn(x, y):
        (a0, a1, w1, v1), (b0, b1, w2, v2) = x, y
        M = sig(w1, v1)
        u0 = (M[0][0] * b0 + M[0][1] * b1) % q
        u1 = (M[1][0] * b0 + M[1][1] * b1) % q
        w = (w1 + (w2 if v1 == 0 else -w2)) % p
        return ((a0 + u0) % q, (a1 + u1) % q, w, (v1 + v2) % 2)

    table = table_from_coords(elements, mulfn, name="V(%d,%d,%d)" % (q, p, rparam))
    half = frozenset(i for i, e in enumerate(elements) if e[3] == 0)
    E = frozenset(i for i, e in enumerate(elements) if e[2] == 0 and e[3] == 0)
    chain = [frozenset(range(len(elements))), half, E, frozenset({0})]
    return table, chain


def _product_data(d1, d2):
    t1, c1 = d1
    t2, c2 = d2
    n2 = t2.n
    mul = [
        [t1.mul[a1][a2] * n2 + t2.mul[b1][b2] for a2 in range(t1.n) for b2 in range(n2)]
        for a1 in range(t1.n)
        for b1 in range(n2)
    ]
    table = FiniteGroupTable(mul, name="%sx%s" % (t1.name, t2.name))
    chain = [frozenset(a * n2 + b for a in K for b in range(n2)) for K in c1]
    chain += [frozenset(b for b in K) for K in c2[1:]]
    return table, chain


_FACTOR_RE = re.compile(
    r"\s*([A-Za-z_]+)\s*(?:\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\))?\s*(?:\^\s*([0-9]+))?\s*$"
)


def _factor_order(name, params):
    name = name.upper()
    try:
        if name in ("Z", "D", "DSTAR", "Q"):
            (n,) = params
            return n
        if name == "S":
            return {3: 6, 4: 24}[params[0]]
        if name == "A":
            return {4: 12}[params[0]]
        if name == "M":
            return params[0] * params[1]
        if name == "V":
            return params[0] ** 2 * 2 * params[1]
    except GroupSpecError:
        raise
    except (ValueError, KeyError, IndexError):
        raise GroupSpecError("bad parameters for %s%r" % (name, tuple(params)))
    raise GroupSpecError("unknown group family %r" % name)


def _build_factor(name, params):
    name = name.upper()
    try:
        if name == "Z":
            (n,) = params
            if n < 1:
                raise GroupSpecError("Z(n) needs n >= 1")
            return _cyclic_data(n)
        if name == "D":
            (n,) = params
            if n < 2 or n % 2:
                raise GroupSpecError("D(n) needs even n >= 2")
            return _dihedral_data(n)
        if name in ("DSTAR", "Q"):
            (n,) = params
            if n % 4 or n < 4:
                raise GroupSpecError("Dstar(n) needs 4 | n")
            if name == "Q" and (n & (n - 1) or n < 8):
                raise GroupSpecError("Q(n) needs a 2-power n >= 8")
            return _binary_dihedral_data(n)
        if name == "S":
            (k,) = params
            if k == 3:
                return _dihedral_data(6)
            if k == 4:
                return _sym4_data()
            raise GroupSpecError("only S(3) and S(4) are built in")
        if name == "A":
            (k,) = params
            if k == 4:
                return _alt4_data()
            raise GroupSpecError("only A(4) is built in")
        if name == "M":
            s, r, u = params
            return _metacyclic_data(s, r, u)
        if name == "V":
            q, p, rr = params
            return _v_q2p_data(q, p, rr)
    except GroupSpecError:
        raise
    except ValueError:
        raise GroupSpecError("wrong parameter count for %s%r" % (name, tuple(params)))
    raise GroupSpecError("unknown group family %r" % name)


def builtin_group(spec, cap=DEFAULT_ORDER_CAP):
    """Build an extension tower from a group spec like ``D(8)``,
    ``Z(3)*S(4)`` or ``Z(2)^3``."""
    parts = spec.split("*")
    factors = []
    total = 1
    for part in parts:
        m = _FACTOR_RE.match(part)
        if m is None:
            raise GroupSpecError("cannot parse group spec %r" % part)
        name = m.group(1)
        params = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
        power = int(m.group(3)) if m.group(3) else 1
        for _ in range(power):
            factors.append((name, params))
            total *= _factor_order(name, params)
    if total > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (total, cap))
    if not factors:
        raise GroupSpecError("empty group spec %r" % spec)
    data = _build_factor(*factors[0])
    for f in factors[1:]:
        data = _product_data(data, _build_factor(*f))
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
