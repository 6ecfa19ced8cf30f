"""The four workloads: their inputs, their queries and their checks.

A workload's ``build`` is part of set-up: it parses the source
presentations and builds the target towers, and returns the queries.  A
query is one call into a public entry point of solvquot.  ``check`` compares
the answers with the independent counts of ``checks.py`` and raises
CheckFailed on a mismatch; it runs after the timed rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import checks
from checks import Table, expect

# The solvable groups of order <= 48 that the quotient scan runs against.
CATALOG = [
    "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(6)", "Z(2)^2", "Z(8)", "Z(2)*Z(4)",
    "Z(2)^3", "Z(9)", "Z(3)^2", "Z(12)", "Z(2)*Z(6)",
    "D(6)", "D(8)", "D(10)", "D(12)", "D(14)", "D(16)", "D(18)", "D(20)",
    "D(24)", "D(48)",
    "Q(8)", "Dstar(12)", "Q(16)", "Dstar(20)", "Dstar(24)", "Dstar(48)",
    "A(4)", "S(4)", "V(2,3,1)",
    "M(5,4,2)", "M(7,3,2)", "M(7,6,3)", "M(9,3,4)",
    "Z(3)*D(8)", "Z(2)*A(4)", "Z(2)*S(4)",
]

# The catalog groups whose second-highest chief quotient is abelian.  On
# these every lifting system below the top layer belongs to a map that
# factors through the abelianization, so for the random words (whose
# length and exponent sums are fixed) the seed changes the words but not
# the number or the size of the systems solved.
ABELIAN_BELOW_TOP = [
    "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(6)", "Z(2)^2", "Z(8)", "Z(2)*Z(4)",
    "Z(2)^3", "Z(9)", "Z(3)^2", "Z(12)", "Z(2)*Z(6)",
    "D(6)", "D(8)", "D(10)", "D(12)", "D(14)", "D(20)",
    "Q(8)", "Dstar(12)", "Dstar(20)", "A(4)",
    "M(5,4,2)", "M(7,3,2)", "M(7,6,3)", "M(9,3,4)", "Z(3)*D(8)", "Z(2)*A(4)",
]

# Brute-force checks run where the number of generator-image tuples stays
# below BRUTE_TUPLES; the oracle's Epi count, which tests each homomorphism
# for surjectivity in Python, below ORACLE_EPI_TUPLES.
BRUTE_TUPLES = 600_000
ORACLE_EPI_TUPLES = 20_000


@dataclass
class Query:
    kind: str  # epi, hom, delta, growth or normal
    source: str
    target: str  # a group spec, or the range of k
    span: str  # name of the benchmark's span around the call
    fn: object
    args: tuple
    top_layer: object = None  # the target's top layer, for the trace
    kmax: int = None  # largest k of an ak_sequence call, for the trace

    @property
    def label(self):
        return "%s %s -> %s" % (self.kind, self.source, self.target)

    def run(self):
        return self.fn(*self.args)


def summary(out):
    """A comparable digest of a query's answer, to confirm that every round
    gives the same answers as the checked one."""
    if hasattr(out, "epi"):
        return (out.epi, out.aut, out.delta, tuple(lv["epi_out"] for lv in out.levels))
    if hasattr(out, "hk"):
        return (tuple(out.hk), tuple(out.ak))
    if isinstance(out, list):
        return tuple(out)
    return out


# ---------------------------------------------------------------------------
# Inputs.


def word_text(word, names):
    out = []
    for g, e in word:
        out.append(names[g] if e == 1 else names[g] + "^-1")
    return " ".join(out)


def variant_text(P, rng):
    """A presentation of the same group as P, chosen by the seed: the
    generators are permuted, each relator is cyclically rotated (a
    conjugate) and, with probability 1/2, inverted."""
    n = P.n
    perm = list(range(n))
    rng.shuffle(perm)
    rels = []
    for rel in P.relators:
        rel = [(perm[g], e) for g, e in rel]
        cut = rng.randrange(len(rel))
        rel = rel[cut:] + rel[:cut]
        if rng.random() < 0.5:
            rel = [(g, -e) for g, e in reversed(rel)]
        rels.append(word_text(rel, P.generators))
    return "< %s | %s >" % (", ".join(P.generators), ", ".join(rels))


def random_word_text(rng, syllables):
    """x^a_1 y^b_1 ... x^a_m y^b_m with the exponent multisets fixed and
    their order shuffled by the seed: the length and both exponent sums do
    not depend on the seed, and no exponent is 0, so the word is reduced."""
    xs, ys = list(syllables[0]), list(syllables[1])
    rng.shuffle(xs)
    rng.shuffle(ys)
    return "< x, y | %s >" % " ".join("x^%d y^%d" % (a, b) for a, b in zip(xs, ys))


def _syllables(m, sx, sy):
    """Exponent multisets of m syllables each, magnitudes cycling 1, 2, 3
    with alternating signs, then shifted so the exponent sums are sx, sy."""
    base = [(1 + (i // 2) % 3) * (1 if i % 2 == 0 else -1) for i in range(m)]
    xs = list(base)
    ys = list(base)
    xs[0] += sx - sum(base)
    ys[0] += sy - sum(base)
    return xs, ys


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""

    def build(self, lib, rng, call):
        """Parse the sources and build the towers (this is set-up); return
        the queries.  ``call(span, fn, *args)`` runs a library call."""
        raise NotImplementedError

    def check(self, lib, queries, outs):
        raise NotImplementedError


class _Towers:
    """Target towers built once per set-up, and their independent tables."""

    def __init__(self, lib, call, specs):
        self.tower = {s: call("groups.builtin_group", lib.groups.builtin_group, s) for s in specs}
        self._table = {}

    def table(self, spec):
        t = self._table.get(spec)
        if t is None:
            t = self._table[spec] = Table(self.tower[spec].group.mul)
            t.aut = checks.aut_order(t)
        return t


def _builtin(lib, call, family, *params):
    return call("presentations.parse", lib.presentations.builtin_presentation, family, *params)


def _parse(lib, call, text):
    return call("presentations.parse", lib.presentations.parse_presentation, text)


class _DeepTowers(Workload):
    """Surface(2) and free(3) onto deep towers."""

    SURFACE_TARGETS = ()
    FREE_TARGETS = ()

    def build(self, lib, rng, call):
        specs = list(dict.fromkeys(self.SURFACE_TARGETS + self.FREE_TARGETS))
        self.towers = _Towers(lib, call, specs)
        surface = _parse(lib, call, variant_text(_builtin(lib, call, "surface", 2), rng))
        free = _builtin(lib, call, "free", 3)
        self.sources = {"surface(2)": surface, "free(3)": free}
        queries = []
        for src, targets in (("surface(2)", self.SURFACE_TARGETS), ("free(3)", self.FREE_TARGETS)):
            for spec in targets:
                queries.append(self.query(lib, src, spec))
        return queries

    def independent_hom(self, src, spec, mask=None):
        table = self.towers.table(spec)
        if src == "surface(2)":
            return checks.hom_surface2(table, mask)
        order = table.n if mask is None else bin(mask).count("1")
        return checks.hom_free(order, 3)

    def tuples(self, src, spec):
        return self.towers.table(spec).n ** self.sources[src].n


class EpiDeep(_DeepTowers):
    name = "epi_deep"
    SURFACE_TARGETS = ("Dstar(48)", "Z(2)*S(4)", "D(24)", "S(4)")
    FREE_TARGETS = ("Dstar(48)", "D(48)", "Z(2)*S(4)", "D(24)", "S(4)")

    def query(self, lib, src, spec):
        T = self.towers.tower[spec]
        return Query("epi", src, spec, "counting.epi_count",
                     lib.counting.epi_count, (self.sources[src], T), top_layer=T.layers[-1])

    def check(self, lib, queries, outs):
        for q, rep in zip(queries, outs):
            src, spec = q.source, q.target
            table = self.towers.table(spec)
            hom = self.independent_hom(src, spec)
            checks.check_epi(q.label, rep.epi, table, lambda m: self.independent_hom(src, spec, m))
            checks.check_epi_report(q.label, rep.epi, rep.aut, rep.delta, table.aut, hom)
            expect("top level of " + q.label, rep.levels[-1]["epi_out"], rep.epi)
            P, G = self.sources[src], self.towers.tower[spec].group
            if self.tuples(src, spec) <= BRUTE_TUPLES:
                expect("oracle |Hom| " + q.label, int(lib.oracle.brute_hom(P, G)), hom)
            if self.tuples(src, spec) <= ORACLE_EPI_TUPLES:
                expect("oracle |Epi| " + q.label, int(lib.oracle.brute_epi(P, G)), rep.epi)


class HomDeep(_DeepTowers):
    name = "hom_deep"
    SURFACE_TARGETS = ("D(48)", "D(24)", "S(4)")
    FREE_TARGETS = ("Dstar(48)", "D(48)", "Z(2)*S(4)", "D(24)", "S(4)")

    def query(self, lib, src, spec):
        T = self.towers.tower[spec]
        return Query("hom", src, spec, "counting.hom_count",
                     lib.counting.hom_count, (self.sources[src], T), top_layer=T.layers[-1])

    def check(self, lib, queries, outs):
        for q, hom in zip(queries, outs):
            src, spec = q.source, q.target
            checks.check_hom(q.label, hom, self.independent_hom(src, spec))
            if self.tuples(src, spec) <= BRUTE_TUPLES:
                P, G = self.sources[src], self.towers.tower[spec].group
                expect("oracle |Hom| " + q.label, int(lib.oracle.brute_hom(P, G)), hom)


class QuotientScan(Workload):
    """delta of the paper's source families, and of seeded random long
    one-relator words, against catalog targets; plus one 2002-letter
    relator onto Z(2), whose time is almost all the Fox Jacobian."""

    name = "quotient_scan"
    FAMILIES = [
        ("bs", (1, 2)), ("bs", (2, 3)), ("bs", (2, 6)), ("bs", (3, 5)),
        ("parafree", (3, 2)), ("parafree", (1, 1)),
        ("braid", (3,)), ("braid", (4,)), ("braid", (5,)),
        ("hillman_link", ()),
    ]
    WORDS = 2
    SYLLABLES = _syllables(100, 2, 1)
    LONG_POWER = ("x^2000 y^2", "< x, y | x^2000 y^2 >", "Z(2)")

    def build(self, lib, rng, call):
        self.towers = _Towers(lib, call, CATALOG)
        self.sources = {}
        pairs = []
        for fam, params in self.FAMILIES:
            label = "%s(%s)" % (fam, ",".join(map(str, params))) if params else fam
            P = self.sources[label] = _builtin(lib, call, fam, *params)
            for spec in CATALOG:
                if self.towers.tower[spec].group.n ** P.n <= BRUTE_TUPLES:
                    pairs.append((label, spec))
        for i in range(self.WORDS):
            label = "word%d" % (i + 1)
            self.sources[label] = _parse(lib, call, random_word_text(rng, self.SYLLABLES))
            pairs.extend((label, spec) for spec in ABELIAN_BELOW_TOP)
        label, text, spec = self.LONG_POWER
        self.sources[label] = _parse(lib, call, text)
        pairs.append((label, spec))
        queries = []
        for label, spec in pairs:
            T = self.towers.tower[spec]
            queries.append(Query("delta", label, spec, "counting.epi_count",
                                 lib.counting.epi_count, (self.sources[label], T),
                                 top_layer=T.layers[-1]))
        return queries

    def check(self, lib, queries, outs):
        for q, rep in zip(queries, outs):
            P = self.sources[q.source]
            table = self.towers.table(q.target)
            checks.check_epi(q.label, rep.epi, table,
                             lambda m: checks.hom_brute(P.relators, P.n, table, m))
            checks.check_epi_report(q.label, rep.epi, rep.aut, rep.delta, table.aut)


class SubgroupGrowth(Workload):
    """Index-k subgroup counts through |Hom(G, S_k)|, and normal ones.  The
    presentations are fixed: relabelling the generators reorders
    hom_count_symmetric's search and moves its time by up to 1.7x, so a
    seeded relabelling would make the seed, not the code, set the time."""

    name = "subgroup_growth"
    SOURCES = [("hillman_link", (), 5), ("braid", (4,), 7), ("parafree", (3, 2), 5),
               ("surface", (2,), 5)]
    NORMAL_KMAX = 12

    def build(self, lib, rng, call):
        self.sources = {}
        queries = []
        for fam, params, kmax in self.SOURCES:
            label = "%s(%s)" % (fam, ",".join(map(str, params))) if params else fam
            P = self.sources[label] = _builtin(lib, call, fam, *params)
            queries.append(Query("growth", label, "k<=%d" % kmax, "subgrowth.ak_sequence",
                                 lib.subgrowth.ak_sequence, (P, kmax), kmax=kmax))
        for label, P in self.sources.items():
            queries.append(Query("normal", label, "k<=%d" % self.NORMAL_KMAX, "subgrowth.ak_normal",
                                 _normal_counts, (lib.subgrowth.ak_normal, P, self.NORMAL_KMAX)))
        return queries

    def check(self, lib, queries, outs):
        sym = {}
        ak = {}
        for q, out in zip(queries, outs):
            label = q.source
            P = self.sources[label]
            if q.kind == "growth":
                want = []
                for k in range(1, len(out.hk) + 1):
                    if label == "surface(2)":
                        want.append(checks.hom_surface_symmetric(2, k))
                    elif math.factorial(k) ** P.n <= BRUTE_TUPLES:
                        if k not in sym:
                            sym[k] = lib.groups.FiniteGroupTable(checks.symmetric_rows(k).tolist())
                        want.append(int(lib.oracle.brute_hom(P, sym[k])))
                    else:
                        want.append(None)
                checks.check_growth(q.label, out.hk, out.ak, want)
                ak[label] = list(out.ak)
                expect("a_2..a_4 by Hall invariants for " + label,
                       tuple(lib.subgrowth.low_index_via_deltas(P)), tuple(out.ak[1:4]))
            else:
                checks.check_normal(q.label, ak[label], out)
                for p in (2, 3, 5, 7, 11):
                    hom = checks.hom_brute(P.relators, P.n, Table(checks.cyclic_rows(p)))
                    expect("a_%d^normal (from |Hom(G, Z_%d)|) for %s" % (p, p, label),
                           out[p - 1], (hom - 1) // (p - 1))


def _normal_counts(ak_normal, P, kmax):
    return [ak_normal(P, k) for k in range(1, kmax + 1)]


WORKLOADS = {w.name: w for w in (EpiDeep, HomDeep, QuotientScan, SubgroupGrowth)}
