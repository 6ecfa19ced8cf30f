import itertools
import math

import numpy as np
import pytest
from reference import delta_s4, table1_delta

from solvquot import subgrowth
from solvquot.counting import epi_count
from solvquot.groups import CapExceeded, builtin_group
from solvquot.presentations import (
    Presentation,
    abelian_invariants,
    builtin_from_string,
    builtin_presentation,
)
from solvquot.subgrowth import (
    ak_from_homcounts,
    ak_normal,
    ak_sequence,
    delta_abelian_closed,
    hom_count_symmetric,
    low_index_via_deltas,
)

F2 = builtin_presentation("free", 2)
B3 = builtin_presentation("braid", 3)
B4 = builtin_presentation("braid", 4)
KLEIN = builtin_presentation("klein")
SURF2 = builtin_presentation("surface", 2)


def test_hom_count_symmetric_free():
    for n in (1, 2, 3):
        P = builtin_presentation("free", n)
        for k in (1, 2, 3, 4):
            assert hom_count_symmetric(P, k) == math.factorial(k) ** n


def test_hom_count_symmetric_cap():
    with pytest.raises(CapExceeded):
        hom_count_symmetric(F2, 9)


def test_braid_h_values():
    assert hom_count_symmetric(B3, 2) == 2
    assert hom_count_symmetric(B3, 3) == 12


def test_block_convolution_matches_dfs():
    # the one-relator disjoint-block shortcut must agree with plain search
    import itertools

    perms3 = list(itertools.permutations(range(3)))

    def brute(P, k):
        perms = list(itertools.permutations(range(k)))

        def compose(p, q):
            return tuple(p[x] for x in q)

        def inv(p):
            o = [0] * len(p)
            for i, x in enumerate(p):
                o[x] = i
            return tuple(o)

        cnt = 0
        for images in itertools.product(perms, repeat=P.n):
            good = True
            for rel in P.relators:
                v = tuple(range(k))
                for g, e in rel:
                    v = compose(v, images[g] if e == 1 else inv(images[g]))
                if v != tuple(range(k)):
                    good = False
                    break
            cnt += good
        return cnt

    assert hom_count_symmetric(SURF2, 3) == brute(SURF2, 3) == 486
    P4 = builtin_presentation("nonorientable", 4)
    assert hom_count_symmetric(P4, 3) == brute(P4, 3)
    assert hom_count_symmetric(SURF2, 2) == brute(SURF2, 2)


def test_ak_sequence_f2():
    rep = ak_sequence(F2, 4)
    assert rep.hk == [1, 4, 36, 576]
    assert rep.ak == [1, 3, 13, 71]
    assert rep.tk == [1, 3, 26, 426]
    # t_k = (k-1)! a_k with exact divisibility
    for k, (t, a) in enumerate(zip(rep.tk, rep.ak), 1):
        assert t == math.factorial(k - 1) * a


def test_ak_sequence_braids():
    assert ak_sequence(B3, 5).ak == [1, 1, 4, 9, 6]
    assert ak_sequence(B4, 7).ak == [1, 1, 4, 17, 6, 34, 43]
    assert ak_sequence(builtin_presentation("braid", 5), 7).ak == [1, 1, 1, 1, 6, 7, 1]
    assert ak_sequence(builtin_presentation("braid", 7), 7).ak == [1, 1, 1, 1, 1, 1, 8]


def test_ak_from_homcounts():
    assert ak_from_homcounts([1, 4, 36]) == [1, 3, 13]


def test_centraliser_orbits():
    for k in range(2, 8):
        S = subgrowth._symmetric(k)
        N = len(S.perms)
        orbit_counts = 0
        for r, size in zip(S.reps.tolist(), S.sizes.tolist()):
            reps, sizes = S.centraliser_orbits(r)
            assert sizes.sum() == N and ((N // size) % sizes == 0).all(), (k, r)
            assert reps.tolist() == sorted(set(reps.tolist())), (k, r)
            orbit_counts += len(reps)
        # Burnside: S_k has sum |C(g)|^2 / k! orbits on pairs, one per
        # (class representative, orbit of its centraliser)
        assert orbit_counts * N == sum((N // size) ** 2 * size for size in S.sizes.tolist())
        # the identity's centraliser is S_k: its orbits are the classes
        reps, sizes = S.centraliser_orbits(0)
        assert reps.tolist() == S.reps.tolist() and sizes.tolist() == S.sizes.tolist()


def test_centraliser_orbits_against_conjugating_by_the_centraliser():
    for k in (3, 4, 5):
        S = subgrowth._symmetric(k)
        for r in S.reps.tolist():
            p = S.perms[r]
            cent = [c for c in S.perms if (c[p] == p[c]).all()]
            label = {}
            for x in range(len(S.perms)):
                orbit = {int(i) for i in S.rank(np.array([c[S.perms[x][np.argsort(c)]]
                                                          for c in cent]))}
                label[x] = min(orbit)
            reps, sizes = S.centraliser_orbits(r)
            want = sorted(set(label.values()))
            assert reps.tolist() == want, (k, r)
            assert sizes.tolist() == [list(label.values()).count(m) for m in want]


def _cycle_type(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = p[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_class_data_against_cycle_types():
    # classes by cycle type in plain Python: the partition of class_of,
    # representatives in first-met order and sizes k!/z_lambda, where
    # z_lambda is the product over the parts m (with multiplicity c) of m^c c!
    for k in range(1, 8):
        S = subgrowth._symmetric(k)
        perms = list(itertools.permutations(range(k)))
        assert S.perms.tolist() == [list(p) for p in perms]
        assert (S.perms[np.arange(len(perms))[:, None], S.inv] == np.arange(k)).all()
        first = {}
        for i, p in enumerate(perms):
            first.setdefault(_cycle_type(p), i)
        types = list(first)
        assert S.reps.tolist() == list(first.values()), k
        assert S.class_of.tolist() == [types.index(_cycle_type(p)) for p in perms], k
        for lam, size in zip(types, S.sizes.tolist()):
            z = math.prod(m ** lam.count(m) * math.factorial(lam.count(m)) for m in set(lam))
            assert size == math.factorial(k) // z, (k, lam)


def test_conjugation_maps_against_ranking():
    # the conjugation maps composed from adjacent transpositions against
    # ranking c o x o c^-1 for every x, for the centraliser generators of
    # each class representative and for random permutations c
    rng = np.random.default_rng(1)
    for k in range(2, 8):
        S = subgrowth._symmetric(k)
        cs = [g for r in S.reps.tolist() for g in subgrowth._centraliser_gens(S.perms[r])]
        cs += [rng.permutation(k).astype(np.int8) for _ in range(3)]
        for c in cs:
            want = S.rank(c[S.perms[:, np.argsort(c)]])
            assert (S._conjugation(c) == want).all(), (k, c.tolist())


def test_two_generator_orbits_against_the_unreduced_search(monkeypatch):
    # the second generator over every permutation with weight 1 in place
    # of the centraliser orbits of the first image, with the default chunks
    # (Cayley codes at k <= 6) and with chunks of one row (fixed
    # permutations); the sources with three or four generators test the
    # orbit weights of a depth 1 that is not the last, to k = 5
    sources = [(builtin_from_string(label), 6) for label in
               ("braid(3)", "braid(4)", "braid(5)", "bs(1,2)", "bs(2,3)")]
    assert all(P.n == 2 for P, _ in sources)
    sources += [(builtin_from_string(label), 5) for label in
                ("parafree(3,2)", "braid3_split", "hillman_link")]
    calls = []
    real = subgrowth._Symmetric.centraliser_orbits

    def counted(self, r):
        calls.append(r)
        return real(self, r)

    def every_permutation(self, r):
        N = len(self.perms)
        return np.arange(N), np.ones(N, dtype=np.int64)

    for siblings in (subgrowth._SIBLINGS, 1):
        monkeypatch.setattr(subgrowth, "_SIBLINGS", siblings)
        monkeypatch.setattr(subgrowth._Symmetric, "centraliser_orbits", counted)
        got = [[hom_count_symmetric(P, k) for k in range(1, kmax + 1)] for P, kmax in sources]
        assert calls  # the second generator took the orbit route
        monkeypatch.setattr(subgrowth._Symmetric, "centraliser_orbits", every_permutation)
        assert [[hom_count_symmetric(P, k) for k in range(1, kmax + 1)]
                for P, kmax in sources] == got
        del calls[:]


def test_cayley_table():
    for k in range(1, 7):
        S = subgrowth._symmetric(k)
        M = S.cayley
        N = len(S.perms)
        assert M.shape == (N, N) and M.dtype == np.int16
        for a in range(N):
            assert (M[a] == S.rank(S.perms[a][S.perms])).all(), (k, a)
        assert (M[0] == np.arange(N)).all()
        assert (S.perms[S.inv_code] == S.inv).all()
        assert (M[np.arange(N), S.inv_code] == 0).all()


def test_code_path_matches_the_fixed_permutation_path(monkeypatch):
    # the evaluator follows k alone: Cayley codes at every depth for k <= 6,
    # fixed permutations at k = 7, where a chunk is one row; chunks of one
    # row at every k (_SIBLINGS = 1) give the fixed-permutation reference
    sources = [builtin_presentation("hillman_link"), B4, builtin_presentation("parafree", 3, 2),
               builtin_presentation("braid3_split"), builtin_presentation("braid4_split")]
    calls = {"codes": 0, "perms": 0}

    def count_calls(name, key):
        real = getattr(subgrowth, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(subgrowth, name, counted)

    count_calls("_code_values", "codes")
    count_calls("_relator_values", "perms")
    want = []
    for P in sources:
        calls.update(codes=0, perms=0)
        want.append([hom_count_symmetric(P, k) for k in range(1, 6)])
        assert calls["codes"] and not calls["perms"], P
    for P in sources[:4]:  # braid4_split at k = 6 alone takes about a second
        calls.update(codes=0, perms=0)
        hom_count_symmetric(P, 6)
        assert calls["codes"] and not calls["perms"], P
    calls.update(codes=0, perms=0)
    assert hom_count_symmetric(B4, 7) == 115920
    assert calls["perms"] and not calls["codes"]
    # chunks of one row: every depth on the fixed-permutation path
    monkeypatch.setattr(subgrowth, "_SIBLINGS", 1)
    calls.update(codes=0, perms=0)
    assert [[hom_count_symmetric(P, k) for k in range(1, 6)] for P in sources] == want
    assert calls["perms"] and not calls["codes"]


def test_reduced_search_counts():
    # values of the search before the centraliser reduction
    assert hom_count_symmetric(builtin_presentation("hillman_link"), 6) == 1333440
    assert hom_count_symmetric(builtin_presentation("parafree", 3, 2), 6) == 535680
    assert hom_count_symmetric(builtin_presentation("braid4_split"), 5) == 840
    assert hom_count_symmetric(builtin_presentation("braid3_split"), 6) == 6480
    assert hom_count_symmetric(B4, 7) == 115920


@pytest.mark.slow
def test_slow_growth_cases():
    # run with pytest -m slow; parafree(3,2) at k = 7 is the value of one run
    # of the search before the centraliser reduction (45 s on a 2-CPU host)
    assert hom_count_symmetric(builtin_presentation("braid3_split"), 7) == 85680
    assert hom_count_symmetric(builtin_presentation("braid4_split"), 6) == 9360
    assert hom_count_symmetric(B4, 6) == 9360  # the same group
    assert hom_count_symmetric(builtin_presentation("parafree", 3, 2), 7) == 29504160


def _surface_closed_form(genus, k):
    # k! sum over partitions lambda of k of (k!/f_lambda)^(2g-2), where
    # f_lambda = k!/(product of hook lengths) by the hook-length formula
    def partitions(m, largest):
        if m == 0:
            yield ()
        for part in range(min(m, largest), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    total = 0
    for lam in partitions(k, k):
        cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
        hooks = math.prod(lam[i] - j + cols[j] - i - 1
                          for i in range(len(lam)) for j in range(lam[i]))
        total += hooks ** (2 * genus - 2)  # (k!/f_lambda) is the hook product
    return math.factorial(k) * total


def _rotations_and_inversions(P):
    rel = P.relators[0]
    for cut in range(len(rel)):
        word = rel[cut:] + rel[:cut]
        yield Presentation(P.generators, (word,))
        yield Presentation(P.generators, (tuple((g, -e) for g, e in reversed(word)),))


def test_surface_rotations_take_the_block_route(monkeypatch):
    measures = []
    real = subgrowth._block_class_measure
    monkeypatch.setattr(subgrowth, "_block_class_measure",
                        lambda *a: measures.append(a) or real(*a))
    assert [_surface_closed_form(2, k) for k in (4, 5)] == [34176, 3858240]
    for Q in _rotations_and_inversions(SURF2):
        before = len(measures)
        assert hom_count_symmetric(Q, 4) == 34176
        assert hom_count_symmetric(Q, 5) == 3858240
        # both commutator blocks are one word up to renaming: one measure per k
        assert len(measures) == before + 2, Q.relators


def test_surface_against_the_hook_length_formula():
    variants = list(_rotations_and_inversions(SURF2))
    for k in range(1, 8):
        want = _surface_closed_form(2, k)
        assert hom_count_symmetric(SURF2, k) == want, k
        # every variant up to k = 6, a sample at k = 7
        for Q in variants if k < 7 else variants[::5]:
            assert hom_count_symmetric(Q, k) == want, (k, Q.relators)
    assert hom_count_symmetric(builtin_presentation("surface", 1), 7) == _surface_closed_form(1, 7)


def test_block_measure_against_all_assignments():
    # the measure from the class representatives of generator 0 against
    # the values of all (k!)^m assignments
    words = [
        ((0, 1), (1, 1), (0, -1), (1, -1)),
        ((1, 1), (0, 1), (0, 1), (1, -1), (0, 1)),
        ((0, 1), (1, 1), (2, 1), (0, -1), (2, -1)),
        ((2, 1), (1, -1), (0, 1), (2, 1), (1, 1), (0, 1)),
    ]
    for k in range(2, 6):
        S = subgrowth._symmetric(k)
        N = len(S.perms)
        for word in words if k < 5 else words[::2]:  # one of each support at k = 5
            m = 1 + max(g for g, _ in word)
            images = np.indices((N,) * m).reshape(m, -1, 1) * k
            V = np.arange(k)
            for g, e in reversed(word):  # the word's value, right to left
                V = (S.perms if e == 1 else S.inv).ravel()[images[g] + V]
            hits = np.bincount(S.class_of[S.rank(V)], minlength=len(S.sizes))
            want = (hits // S.sizes).tolist()
            assert (hits % S.sizes == 0).all()
            assert subgrowth._block_class_measure(word, m, S) == want, (k, word)


def test_delta_abelian_closed_forms():
    inv = abelian_invariants(F2)
    assert delta_abelian_closed(inv, ("cyclic", 3, 1)) == 4
    assert delta_abelian_closed(inv, ("cyclic", 2, 2)) == 6
    assert delta_abelian_closed(inv, ("elementary", 2, 2)) == 1
    assert delta_abelian_closed(inv, ("mixed", 2, 2)) == 3  # Z_2 + Z_4


def test_delta_abelian_vs_engine():
    shapes = {
        ("cyclic", 2, 1): "Z(2)",
        ("cyclic", 2, 2): "Z(4)",
        ("elementary", 2, 2): "Z(2)^2",
        ("cyclic", 3, 1): "Z(3)",
        ("cyclic", 3, 2): "Z(9)",
        ("elementary", 3, 2): "Z(3)^2",
        ("mixed", 2, 2): "Z(2)*Z(4)",
    }
    for label in ["free(2)", "bs(2,4)", "surface(2)", "bs(1,5)", "bs(2,6)"]:
        from solvquot.presentations import builtin_from_string

        P = builtin_from_string(label)
        inv = abelian_invariants(P)
        for shape, spec in shapes.items():
            got = delta_abelian_closed(inv, shape)
            want = epi_count(P, builtin_group(spec)).delta
            assert got == want, (label, shape, got, want)


def test_ak_normal():
    assert ak_normal(F2, 4) == 7
    assert ak_normal(F2, 6) == 15
    # prime index: (p^n - 1)/(p - 1)
    for n in (2, 3):
        P = builtin_presentation("free", n)
        for p in (2, 3, 5, 7, 11, 13):
            assert ak_normal(P, p) == (p**n - 1) // (p - 1)
    with pytest.raises(CapExceeded):
        ak_normal(F2, 16)


def test_ak_normal_vs_engine_on_composite_orders():
    from solvquot.groups import CATALOG_SPECS

    by_order = {
        6: ["Z(6)", "S(3)"],
        8: ["Z(8)", "Z(2)*Z(4)", "Z(2)^3", "D(8)", "Q(8)"],
        10: ["Z(10)", "D(10)"],
        12: ["Z(12)", "Z(2)*Z(6)", "D(12)", "Dstar(12)", "A(4)"],
        14: ["Z(14)", "D(14)"],
        15: ["Z(15)"],
    }
    for P in (F2, KLEIN, B3):
        for k, specs in by_order.items():
            want = sum(epi_count(P, builtin_group(s)).delta for s in specs)
            assert ak_normal(P, k) == want, (str(P), k)


def test_hall_invariants_against_the_one_layer_reference(monkeypatch):
    # ak_normal and low_index_via_deltas take each nonabelian Hall invariant
    # from the lifting engine on a builtin tower; with the hand-built
    # one-layer evaluations in its place they give the same numbers
    one_layer = {
        "D(6)": lambda P: table1_delta(P, "S3"),
        "D(8)": lambda P: table1_delta(P, "D8"),
        "Q(8)": lambda P: table1_delta(P, "Q8"),
        "D(10)": lambda P: table1_delta(P, "D10"),
        "D(12)": lambda P: table1_delta(P, "D12"),
        "Dstar(12)": lambda P: table1_delta(P, "Dstar12"),
        "A(4)": lambda P: table1_delta(P, "A4"),
        "D(14)": lambda P: table1_delta(P, "D14"),
        "S(4)": delta_s4,
    }
    sources = [builtin_from_string(label) for label in [
        "hillman_link", "braid(4)", "parafree(3,2)", "surface(2)", "free(2)", "klein",
        "bs(2,6)"]]
    got = [([ak_normal(P, k) for k in range(1, 16)], low_index_via_deltas(P)) for P in sources]
    monkeypatch.setattr(subgrowth, "_hall_delta", lambda P, spec: one_layer[spec](P))
    for P, (normal, low) in zip(sources, got):
        assert normal == [ak_normal(P, k) for k in range(1, 16)], str(P)
        assert low == low_index_via_deltas(P), str(P)


def test_low_index_dual_path():
    assert low_index_via_deltas(F2) == (3, 13, 71)
    assert low_index_via_deltas(B3) == (1, 4, 9)
    for P in (F2, B3, B4, KLEIN, SURF2):
        a2, a3, a4 = low_index_via_deltas(P)
        rep = ak_sequence(P, 4)
        assert (a2, a3, a4) == tuple(rep.ak[1:4]), str(P)


def test_surface_vs_nonorientable():
    # a_k agrees between the orientable genus-g and non-orientable genus-2g
    # surface groups, while the Z_3 Hall invariants differ
    for g in (1, 2):
        Pg = builtin_presentation("surface", g)
        Pn = builtin_presentation("nonorientable", 2 * g)
        assert ak_sequence(Pg, 5).ak == ak_sequence(Pn, 5).ak
        d1 = delta_abelian_closed(abelian_invariants(Pg), ("cyclic", 3, 1))
        d2 = delta_abelian_closed(abelian_invariants(Pn), ("cyclic", 3, 1))
        assert d1 != d2


def test_split_braid_presentations_agree():
    # the semidirect-product presentations define the same groups as the
    # two-generator ones, so every h_k and a_k must agree
    b3s = builtin_presentation("braid3_split")
    assert ak_sequence(b3s, 4).ak == ak_sequence(B3, 4).ak
    b4s = builtin_presentation("braid4_split")
    assert ak_sequence(b4s, 3).ak == ak_sequence(B4, 3).ak


def test_growth_report_shape():
    rep = ak_sequence(B3, 4)
    doc = rep.to_json_dict()
    assert doc["a"] == [1, 1, 4, 9]
    assert sorted(doc) == ["a", "h", "kmax", "t"]
