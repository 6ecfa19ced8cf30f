"""Finitely presented groups: reduced words, a small presentation language,
Fox derivatives, and abelianization invariants."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class PresentationError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """A count or an input would pass one of the caps on its size; raised
    before the resource is spent."""


# most letters the parser may build for one presentation, all its powers,
# commutators and conjugates together; words are stored letter by letter
WORD_LETTER_CAP = 10**7


class ParseError(PresentationError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# ---------------------------------------------------------------------------
# Words: tuples of (generator index, +1/-1), kept freely reduced.


def free_reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_inverse(w):
    return tuple((g, -e) for g, e in reversed(w))


def word_mul(*words):
    out = []
    for w in words:
        out.extend(w)
    return free_reduce(out)


def _join(words):
    """The product of freely reduced words, freely reduced: letters can
    cancel only where two words meet, so the rest is copied as it is."""
    out = []
    for w in words:
        i = 0
        while i < len(w) and out and out[-1][0] == w[i][0] and out[-1][1] == -w[i][1]:
            out.pop()
            i += 1
        out.extend(w[i:])
    return tuple(out)


def word_pow(w, k):
    if k < 0:
        return word_pow(word_inverse(w), -k)
    # w = u c u^-1 with c cyclically reduced, so u c^k u^-1 is reduced
    w = free_reduce(w)
    j = 0
    while 2 * j + 1 < len(w) and w[j][0] == w[-1 - j][0] and w[j][1] == -w[-1 - j][1]:
        j += 1
    return w[:j] + w[j : len(w) - j] * k + w[len(w) - j :] if k else ()


def exponent_sum(w, j):
    return sum(e for g, e in w if g == j)


def word_str(w, names):
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        g, e = w[i]
        j = i
        while j < len(w) and w[j] == (g, e):
            j += 1
        exp = e * (j - i)
        parts.append(names[g] if exp == 1 else "%s^%d" % (names[g], exp))
        i = j
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Presentations.


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        seen = set()
        for name in gens:
            if name in seen:
                raise PresentationError("duplicate generator name %r" % name)
            seen.add(name)
        rels = []
        for r in self.relators:
            r = free_reduce(r)
            for g, e in r:
                if not (0 <= g < len(gens)) or e not in (1, -1):
                    raise PresentationError("bad letter %r in relator" % ((g, e),))
            if r:
                rels.append(r)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(rels))

    @property
    def n(self):
        return len(self.generators)

    @cached_property
    def text(self):
        """The presentation in the parser's language, rendered once."""
        rels = ", ".join(word_str(r, self.generators) for r in self.relators)
        return "< %s | %s >" % (", ".join(self.generators), rels)

    def __str__(self):
        return self.text

    @cached_property
    def letter_arrays(self):
        """The relators letter by letter: (gen, kind, block).  ``gen`` and
        ``kind`` are (K, Lmax) int64 arrays with relator k left-aligned in
        row k and padded to the longest relator: the generator of each letter
        (0 in the padding), and 0 for x, 1 for x^-1 and 2 for padding.
        ``block`` is the (K, n, Lmax) 0/1 array with block[k, g, t] = 1
        where letter t of relator k is a letter of generator g: the Fox
        derivative block (k, g) it adds to."""
        K, n = len(self.relators), len(self.generators)
        width = max((len(r) for r in self.relators), default=0)
        gen = np.zeros((K, width), dtype=np.int64)
        kind = np.full((K, width), 2, dtype=np.int64)
        block = np.zeros((K, n, width), dtype=np.int64)
        for k, rel in enumerate(self.relators):
            for t, (g, e) in enumerate(rel):
                gen[k, t] = g
                kind[k, t] = e < 0
                block[k, g, t] = 1
        return gen, kind, block

    @cached_property
    def abelian_invariants(self):
        """The frozen ``AbelianInvariants``, computed on first use."""
        diag = smith_normal_form(abelianized_jacobian(self), ncols=self.n)
        nonzero = [d for d in diag if d != 0]
        alphas = {}
        for d in nonzero:
            for p, e in factorize(d).items():
                alphas.setdefault(p, {})
                alphas[p][e] = alphas[p].get(e, 0) + 1
        torsion = []
        for p in sorted(alphas):
            top = max(alphas[p])
            torsion.append((p, tuple(alphas[p].get(i, 0) for i in range(1, top + 1))))
        return AbelianInvariants(self.n - len(nonzero), tuple(torsion))

    @cached_property
    def eliminations(self):
        """The counting engine's one-matrix eliminations of the lifting
        matrix every map shares through a layer Z_q^s of trivial action (or
        any layer, for a source without relators): the exponent sums of the
        relators mod q tensor I_s, the abelianized Fox Jacobian.  A dict of
        (matrix, ``Elimination``) keyed on (q, s), each entry made once by
        ``counting._shared_elimination``; the bottom level of every tower
        reads its lifts off the entry's homogeneous solutions."""
        return {}


# ---------------------------------------------------------------------------
# Parser for the presentation language:
#
#   presentation = "<" names "|" relators ">"
#   names        = ident { "," ident }
#   relators     = [ word { ("," | ";") word } ]
#   word         = factor { factor }
#   factor       = atom [ "^" ( signed-int | "(" word ")" ) ]
#   atom         = ident | "(" word ")" | "[" word "," word "]"
#
# "[u,v]" is the commutator u^-1 v^-1 u v, "w^(v)" the conjugate v^-1 w v.
# "#" starts a comment running to the end of the line.

_TOKEN = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[+-]?[0-9]+)"
    r"|(?P<punct>[<>|,;^()\[\]])"
)

_WORD_STOPS = {",", ";", ">", ")", "]"}


def _tokenize(text):
    src = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)
    toks = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError("unexpected character %r" % src[pos], pos)
        toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.letters = 0  # letters built so far, charged before they are built

    def charge(self, letters, pos, what):
        """Add ``letters`` to the running total, raising CapExceeded before
        anything is built if the total would pass WORD_LETTER_CAP."""
        self.letters += letters
        if self.letters > WORD_LETTER_CAP:
            raise CapExceeded("the %s at position %d would bring the presentation past the cap "
                              "of %d letters" % (what, pos, WORD_LETTER_CAP))

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError("expected %r, found %r" % (value, val), pos)

    def presentation(self):
        self.expect("<")
        names = self.names()
        index = {name: i for i, name in enumerate(names)}
        self.expect("|")
        relators = []
        if self.peek()[1] != ">":
            relators.append(self.word(index))
            while self.peek()[1] in (",", ";"):
                self.next()
                relators.append(self.word(index))
        self.expect(">")
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError("trailing input %r" % val, pos)
        return Presentation(tuple(names), tuple(relators))

    def names(self):
        names = [self.ident()]
        while self.peek()[1] == ",":
            self.next()
            names.append(self.ident())
        return names

    def ident(self):
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError("expected a generator name, found %r" % val, pos)
        return val

    def word(self, index):
        factors = [self.factor(index)]
        while True:
            kind, val, pos = self.peek()
            if kind is None or val in _WORD_STOPS:
                break
            factors.append(self.factor(index))
        return _join(factors)

    def factor(self, index):
        base = self.atom(index)
        if self.peek()[1] == "^":
            self.next()
            kind, val, pos = self.next()
            if kind == "int":
                # word_pow builds |e| copies of the base: max(len(base), 1) |e|
                # letters or empty words, past the cap whenever |e| has more
                # digits than the cap, which is then not converted
                digits = val.lstrip("+-")
                e = int(digits) if len(digits) <= len(str(WORD_LETTER_CAP)) else WORD_LETTER_CAP + 1
                self.charge(max(len(base), 1) * e, pos, "power")
                return word_pow(base, int(val))
            if val == "(":
                conj = self.word(index)
                self.expect(")")
                self.charge(2 * len(conj) + len(base), pos, "conjugate")
                return _join((word_inverse(conj), base, conj))
            raise ParseError("expected an integer or '(' after '^', found %r" % val, pos)
        return base

    def atom(self, index):
        kind, val, pos = self.next()
        if kind == "ident":
            if val not in index:
                raise ParseError("undeclared generator %r" % val, pos)
            self.charge(1, pos, "letter")
            return ((index[val], 1),)
        if val == "(":
            w = self.word(index)
            self.expect(")")
            return w
        if val == "[":
            u = self.word(index)
            self.expect(",")
            v = self.word(index)
            self.expect("]")
            self.charge(2 * (len(u) + len(v)), pos, "commutator")
            return _join((word_inverse(u), word_inverse(v), u, v))
        raise ParseError("expected a generator, '(' or '[', found %r" % val, pos)


def parse_presentation(text):
    return _Parser(text).presentation()


# ---------------------------------------------------------------------------
# Built-in families.


def _free_names(k):
    if k <= 3:
        return ("x", "y", "z")[:k]
    return tuple("x%d" % (i + 1) for i in range(k))


# the number of integer parameters of each family
_FAMILY_PARAMS = dict(free=1, bs=2, parafree=2, klein=0, surface=1, nonorientable=1, braid=1,
                      braid3_split=0, braid4_split=0, hillman_link=0)

# generators plus relator letters, as written, of each family that grows
# with its parameters: charged to WORD_LETTER_CAP before anything is built
_FAMILY_LETTERS = dict(
    free=lambda n: n,
    bs=lambda m, n: 4 + abs(m) + abs(n),
    parafree=lambda m, n: 8 + 2 * abs(m) + 2 * abs(n),
    surface=lambda g: 6 * g,
    nonorientable=lambda g: 3 * g,
    # y^n (y x)^(1-n), then [y^i x y^-i, x] of 4i + 4 letters for 2 <= i <= n/2
    braid=lambda n: 3 * n + 2 * (n // 2) ** 2 + 6 * (n // 2) - 8,
)


def builtin_presentation(family, *params):
    fam = family.lower()
    if fam not in _FAMILY_PARAMS:
        raise PresentationError("unknown presentation family %r" % family)
    if len(params) != _FAMILY_PARAMS[fam]:
        raise PresentationError("wrong parameter count for %s: %d given, %d taken"
                                % (fam, len(params), _FAMILY_PARAMS[fam]))
    if fam == "free" and params[0] < 1:
        raise PresentationError("free(n) needs n >= 1")
    if fam == "bs" and not (0 < params[0] <= abs(params[1])):
        raise PresentationError("bs(m,n) needs 0 < m <= |n|")
    if fam in ("surface", "nonorientable") and params[0] < 1:
        raise PresentationError("%s(g) needs g >= 1" % fam)
    if fam == "braid" and params[0] < 3:
        raise PresentationError("braid(n) needs n >= 3")
    if fam in _FAMILY_LETTERS and _FAMILY_LETTERS[fam](*params) > WORD_LETTER_CAP:
        raise CapExceeded("the builtin %s presentation would pass the cap of %d letters"
                          % (fam, WORD_LETTER_CAP))
    if fam == "free":
        return Presentation(_free_names(params[0]), ())
    if fam == "bs":
        m, n = params
        text = "< x, y | x y^%d x^-1 y^%d >" % (m, -n)
    elif fam == "parafree":
        m, n = params
        text = "< x, y, z | x z^%d x z^%d x^-1 z^%d y z^%d y^-1 >" % (m, -m, n, -n)
    elif fam == "klein":
        text = "< x, y | y x y^-1 x >"
    elif fam == "surface":
        (g,) = params
        names = ", ".join(["x%d, y%d" % (i, i) for i in range(1, g + 1)])
        rel = " ".join("[x%d, y%d]" % (i, i) for i in range(1, g + 1))
        text = "< %s | %s >" % (names, rel)
    elif fam == "nonorientable":
        (g,) = params
        names = ", ".join("x%d" % i for i in range(1, g + 1))
        rel = " ".join("x%d^2" % i for i in range(1, g + 1))
        text = "< %s | %s >" % (names, rel)
    elif fam == "braid":
        (n,) = params
        rels = ["y^%d (y x)^%d" % (n, 1 - n)]
        rels += ["[y^%d x y^%d, x]" % (i, -i) for i in range(2, n // 2 + 1)]
        text = "< x, y | %s >" % ", ".join(rels)
    elif fam == "braid3_split":
        text = "< x, a, b | x^-1 a x b^-1, x^-1 b x a b^-1 >"
    elif fam == "braid4_split":
        text = (
            "< x, a, b, c, d | "
            "x^-1 a x b^-1, x^-1 b x a b^-1, x^-1 c x c^-1 d^-1, x^-1 d x d^-1, "
            "a^-1 c a d^-1, b^-1 c b c^-1 d, "
            "a^-1 d a d^-2 c d^-1, b^-1 d b d^-1 c d^-1 >"
        )
    elif fam == "hillman_link":
        # conjugation here is w^v = v w v^-1 (the values of the solvable
        # invariants of this link group pin that reading down)
        text = (
            "< x1, x2, x3, x4 | "
            "x4^-1 x1 x4 (x2^-1 x1 x2) x4 x1 (x2^-1 x1 x2)^-1, "
            "(x2^-1 x1^-1 x2) x3^-1 x1 x4 (x2^-1 x1^-1 x2)^-1 x3 x1 x4 x3^-1, "
            "[x1^-1 x4^-1 x3 x1 x4 x3^-2 x4, x2] >"
        )
    return parse_presentation(text)


_BUILTIN_RE = re.compile(r"\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\(([^)]*)\))?\s*$")


def builtin_from_string(text):
    """Parse a family spec like ``braid(4)`` or ``klein``."""
    m = _BUILTIN_RE.match(text)
    if m is None:
        raise PresentationError("cannot parse builtin presentation %r" % text)
    name, args = m.group(1), m.group(2)
    params = ()
    if args is not None and args.strip():
        try:
            params = tuple(int(a) for a in args.split(","))
        except ValueError:
            raise PresentationError("non-integer parameter in %r" % text)
    return builtin_presentation(name, *params)


# ---------------------------------------------------------------------------
# The free group ring: integer combinations of reduced words.


class FreeGroupRingElement:
    """Formal integer combination of reduced free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        d = {}
        for w, c in items:
            c = d.get(w, 0) + c
            if c:
                d[w] = c
            elif w in d:
                del d[w]
        self.terms = d

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls({free_reduce(w): coeff})

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __add__(self, other):
        d = dict(self.terms)
        for w, c in other.terms.items():
            c = d.get(w, 0) + c
            if c:
                d[w] = c
            elif w in d:
                del d[w]
        return FreeGroupRingElement(d)

    def __neg__(self):
        return FreeGroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FreeGroupRingElement({w: c * other for w, c in self.terms.items()})
        d = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(w1, w2)
                c = d.get(w, 0) + c1 * c2
                if c:
                    d[w] = c
                elif w in d:
                    del d[w]
        return FreeGroupRingElement(d)

    __rmul__ = __mul__

    def augmentation(self):
        return sum(self.terms.values())

    def __eq__(self, other):
        return isinstance(other, FreeGroupRingElement) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = tuple("x%d" % i for i in range(26))
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            bits.append("%+d*%s" % (c, word_str(w, names)))
        return " ".join(bits)


def fox_derivative(w, j):
    """Free derivative with respect to generator j, computed left to right
    with an accumulated prefix word."""
    terms = {}
    prefix = ()
    for g, e in w:
        if g == j:
            if e == 1:
                key = prefix
                c = 1
            else:
                key = word_mul(prefix, ((g, -1),))
                c = -1
            c = terms.get(key, 0) + c
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
        prefix = word_mul(prefix, ((g, e),))
    return FreeGroupRingElement(terms)


def symbolic_jacobian(P):
    """Matrix of free derivatives: one row per relator, one column per
    generator.  The counting path expands these numerically instead (see
    ``cohomology.build_systems``); this is the symbolic reference."""
    return tuple(
        tuple(fox_derivative(r, j) for j in range(P.n)) for r in P.relators
    )


# ---------------------------------------------------------------------------
# Abelianization: exact integer Smith normal form of the abelianized
# derivative matrix.


def factorize(n):
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smith_normal_form(rows, ncols=None):
    """Diagonal of the Smith normal form of an integer matrix; entries are
    nonnegative and each divides the next.  Pivots on the smallest nonzero
    entry, all arithmetic exact."""
    A = [list(r) for r in rows]
    m = len(A)
    n = ncols if ncols is not None else (len(A[0]) if m else 0)
    diag = []
    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = A[i][j]
                if x and (pivot is None or abs(x) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(m):
                if i != t and A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            # clear row t
            for j in range(n):
                if j != t and A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block
        fixed = False
        p = A[t][t]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p:
                    A[t] = [a + b for a, b in zip(A[t], A[i])]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(abs(p))
        t += 1
    return diag


@dataclass(frozen=True)
class AbelianInvariants:
    """Rank and prime-power torsion multiplicities of the abelianization."""

    rank: int
    torsion: tuple  # ((prime, (alpha_1, alpha_2, ...)), ...) sorted by prime

    def alphas(self, p):
        for q, alphas in self.torsion:
            if q == p:
                return alphas
        return ()

    def beta(self, p):
        return sum(self.alphas(p))

    def hom_exponent(self, p, s):
        # log_p |Hom(A, Z_{p^s})| minus s*rank: each Z_{p^i} factor
        # contributes min(i, s).
        return sum(min(i + 1, s) * a for i, a in enumerate(self.alphas(p)))


def abelianized_jacobian(P):
    return [[exponent_sum(r, j) for j in range(P.n)] for r in P.relators]


def abelian_invariants(P):
    """``Presentation.abelian_invariants``, kept on the presentation."""
    return P.abelian_invariants
