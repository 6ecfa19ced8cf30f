import copy
import hashlib
import json
import random
import time

import numpy as np
import pytest
from reference import (
    GroupElement,
    alternating5_table,
    centre_walk,
    closure_walk,
    complement_count,
    derived_subgroup_walk,
    element_orders,
    element_vectors,
    expressions_walk,
    find_isomorphism,
    homomorphism_rows_unpruned,
    inverses,
    inv_structural,
    is_associative_walk,
    is_isomorphic,
    is_nilpotent_walk,
    kernel_vector,
    layer_dec,
    layer_enc,
    mul_structural,
    relabel,
    subtable_walk,
)

from solvquot import groups
from solvquot.counting import aut_order_by_lifting
from solvquot.groups import (
    CATALOG_SPECS,
    NILPOTENT_CATALOG_SPECS,
    CapExceeded,
    FiniteGroupTable,
    GroupSpecError,
    _homomorphism_blocks,
    aut_order,
    automorphisms,
    bfs_expressions,
    builtin_group,
    chief_series,
    generating_sequence,
    minimal_normal_subgroup,
)
from solvquot.lattice import all_subgroups


def test_builtin_orders_and_shapes():
    for spec, order in [
        ("Z(12)", 12), ("Z(2)^3", 8), ("D(8)", 8), ("Dstar(12)", 12),
        ("Q(16)", 16), ("S(3)", 6), ("S(4)", 24), ("A(4)", 12),
        ("M(5,4,2)", 20), ("V(2,3,1)", 24), ("Z(3)*D(8)", 24),
    ]:
        tw = builtin_group(spec)
        assert tw.order == order == len(tw.group)
        tw.verify()


def test_builtin_errors():
    for bad in ["D(7)", "Q(12)", "Q(4)", "S(5)", "A(5)", "M(5,3,2)", "M(4,2,2)",
                "X(3)", "Z()"]:
        with pytest.raises(GroupSpecError):
            builtin_group(bad)
    # V needs the rotation matrix to have order p in GL(2, q)
    with pytest.raises(GroupSpecError):
        builtin_group("V(2,3,0)")
    with pytest.raises(GroupSpecError):
        builtin_group("V(3,2,1)")
    # and q, p prime: V(5,4,0) has a rotation of order 4 in GL(2, 5)
    for bad in ("V(4,3,1)", "V(5,4,0)", "V(2,4,0)"):
        with pytest.raises(GroupSpecError, match="needs primes"):
            builtin_group(bad)
    with pytest.raises(CapExceeded):
        builtin_group("Z(2)^10")


def test_order_cap_is_charged_before_anything_is_built(monkeypatch):
    # past the cap at once: a 4300-digit order is not formatted, and a huge
    # exponent is not multiplied out
    with pytest.raises(CapExceeded, match="group order at least 2048 exceeds cap 512"):
        builtin_group("Z(2)^14300")
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        builtin_group("Z(2)^100000000")
    assert time.perf_counter() - start < 1
    with pytest.raises(CapExceeded, match="group order 3000 exceeds cap 512"):
        builtin_group("Z(3)*D(1000)")
    with pytest.raises(CapExceeded, match="group order at least 1000 exceeds cap 512"):
        builtin_group("D(1000)*Z(3)")
    # int() refuses a number past its digit limit
    with pytest.raises(GroupSpecError, match="too many digits"):
        builtin_group("Z(%s)" % ("1" * 5001))
    # a parameter error comes before the cap
    with pytest.raises(GroupSpecError, match="even n"):
        builtin_group("D(1001)")

    def refuse(*args):
        raise AssertionError("a table was built past the order cap")

    for name in ("_metacyclic_parts", "_metacyclic_data", "_plane_data", "_v_q2p_data",
                 "_product_data", "_coords_array", "table_from_coords"):
        monkeypatch.setattr(groups, name, refuse)
    for spec in ("D(100000)", "Z(2)^10", "Q(1024)", "S(4)^3", "A(4)*M(7,6,3)^2",
                 "V(5,3,1)*Z(4)", "Z(1)^100000000*Z(600)"):
        with pytest.raises(CapExceeded):
            builtin_group(spec)
    # under the cap the same spec reaches the builders
    with pytest.raises(AssertionError, match="past the order cap"):
        builtin_group("Z(1)^100000000*Z(600)", cap=600)


def test_d8_tower_structure():
    tw = builtin_group("D(8)")
    assert [lay.E for lay in tw.layers] == [2, 2, 2]
    assert [lay.c_chi for lay in tw.layers] == [1, 1, 0]  # one non-split layer
    tw.verify()


def test_q8_cocycle_vanishing_pairs():
    tw = builtin_group("Q(8)")
    lay = tw.layers[-1]
    # map base labels to coordinates via the stored isomorphism
    coords = {}
    for b in range(4):
        v, u = divmod(tw.source_iso[b], 4)
        coords[(u % 2, v)] = b
    a, bb, ab = coords[(1, 0)], coords[(0, 1)], coords[(1, 1)]
    zeros = {
        (b1, b2)
        for b1 in range(1, 4)
        for b2 in range(1, 4)
        if lay.chi[b1][b2] == (0,)
    }
    assert zeros == {(a, bb), (bb, ab), (ab, a)}
    assert lay.zeta == 0  # central


def test_dihedral_remainder_cocycle():
    # chi(a^u b^v, a^s b^t) = k with u + s(-1)^v = l k + r (mod ql), 0 <= r < l
    for m in (3, 4, 6, 8, 12):
        tw = builtin_group("D(%d)" % (2 * m))
        lay = tw.layers[-1]
        q = lay.q
        l = len(lay.base) // 2
        for b1 in range(len(lay.base)):
            v1, u1 = divmod(tw.source_iso[b1], m)
            for b2 in range(len(lay.base)):
                v2, u2 = divmod(tw.source_iso[b2], m)
                e = ((u1 % l) + ((u2 % l) if v1 == 0 else -(u2 % l))) % (q * l)
                assert lay.chi[b1][b2] == ((e // l) % q,)
            assert lay.sigma[b1] == (((q - 1,),) if v1 else ((1,),))


def test_quaternion_cocycle_formula():
    for k in (8, 16, 32):
        tw = builtin_group("Q(%d)" % k)
        lay = tw.layers[-1]
        l = k // 4  # rotation order of the base dihedral group
        for b1 in range(len(lay.base)):
            v1, u1 = divmod(tw.source_iso[b1], k // 2)
            for b2 in range(len(lay.base)):
                v2, u2 = divmod(tw.source_iso[b2], k // 2)
                e = ((u1 % l) + ((u2 % l) if v1 == 0 else -(u2 % l))) % (2 * l)
                want = (e // l + (1 if v1 and v2 else 0)) % 2
                assert lay.chi[b1][b2] == (want,)


def test_multiply_inverse_formulas():
    for spec in ["D(8)", "Q(8)", "S(4)", "Dstar(12)", "A(4)", "V(2,3,1)", "M(7,6,3)",
                 "M(9,3,4)", "Z(3)*D(8)", "Z(2)*A(4)", "Z(2)*S(4)", "D(48)", "Dstar(48)"]:
        tw = builtin_group(spec)
        table = tw.group
        for x in range(len(table)):
            assert inv_structural(tw, x) == table.inv[x]
            for y in range(len(table)):
                assert mul_structural(tw, x, y) == table.mul[x, y]
        e = GroupElement(tw, 3)
        assert (e * e.inverse()).index == 0
    with pytest.raises(ValueError):
        GroupElement(builtin_group("D(8)"), 1) * GroupElement(builtin_group("Q(8)"), 1)


def test_d8_relations_in_coordinates():
    # b a b = a^-1 in the source coordinate table of the dihedral group
    tw = builtin_group("D(8)")
    t = tw.source_table
    a, b = 1, 4  # coordinates (u=1,v=0) and (u=0,v=1)
    assert t.orders[a] == 4 and t.orders[b] == 2
    assert t.mul[t.mul[b, a], b] == t.inv[a]


def test_q8_square_relation():
    # every order-4 element squares to the unique central involution
    tw = builtin_group("Q(8)")
    t = tw.group
    central = [x for x in range(1, 8) if t.orders[x] == 2]
    assert len(central) == 1
    for x in range(8):
        if t.orders[x] == 4:
            assert t.mul[x, x] == central[0]


def test_group_axioms_exhaustive():
    for spec in ["D(12)", "Q(16)", "S(4)", "M(7,3,2)"]:
        t = builtin_group(spec).group
        t.check_associativity()
        for x in range(len(t)):
            assert t.mul[x, t.inv[x]] == 0 == t.mul[t.inv[x], x]


def test_chief_series_examples():
    z6 = chief_series(builtin_group("Z(6)").group)
    assert sorted(l.E for l in z6.layers) == [2, 3]
    assert all(l.c_chi == 1 and l.zeta == 0 for l in z6.layers)
    s4 = chief_series(builtin_group("S(4)").group)
    assert sorted(l.E for l in s4.layers) == [2, 3, 4]
    d12 = chief_series(builtin_group("D(12)").group)
    assert sorted(l.E for l in d12.layers) == [2, 2, 3]


def test_chief_series_isomorphic_to_input():
    for spec in ["Z(6)", "D(12)", "Q(8)", "A(4)", "S(4)", "M(5,4,2)", "Dstar(24)",
                 "Z(2)*A(4)", "D(24)"]:
        tw = builtin_group(spec)
        redo = chief_series(tw.group)
        assert redo.order == tw.order
        assert is_isomorphic(redo.group, tw.group), spec


def test_chief_series_rejects_nonsolvable_shape():
    with pytest.raises(GroupSpecError):
        # a non-group table is rejected before anything else
        FiniteGroupTable([[0, 1], [1, 1]])


def test_bad_rows_are_refused_when_the_table_is_built():
    # rows that are ragged, not integers, empty, not square or hold an
    # entry outside 0..n-1 raise GroupSpecError at once rather than a later
    # IndexError or ValueError; the identity and inverse checks keep their
    # messages
    for rows, message in [
            ([[0, 1, 2], [1, 0, 5], [2, 5, 0]], "entries must lie in 0..2"),
            ([[0, 1], [1, -1]], "entries must lie in 0..1"),
            ([[0, 1], [1, 0, 1]], "of integers and of one length"),
            ([[0, 1], [1, 0.5]], "of integers and of one length"),
            ([[0, 1], [1, "0"]], "of integers and of one length"),
            ([[0, 1], [1, 2**70]], "of integers and of one length"),
            ([[True]], "of integers and of one length"),
            ([], "of integers and of one length"),
            ([[]], "of integers and of one length"),
            ([0, 1], "of integers and of one length"),
            ([[0, 1]], "not square: 1 rows of 2 entries"),
            ([[1, 0], [0, 1]], "element 0 is not an identity"),
            ([[0, 1], [1, 1]], "element 1 has no two-sided inverse"),
            ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], "element 1 has no two-sided inverse")]:
        with pytest.raises(GroupSpecError, match=message):
            FiniteGroupTable(rows)
    # rows of ints and integer arrays give the same read-only int64 arrays
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for given in (z3, np.array(z3, dtype=np.uint8), np.array(z3, dtype=np.int32)):
        t = FiniteGroupTable(given)
        assert t.mul.dtype == t.inv.dtype == np.int64 and t.inv.tolist() == [0, 2, 1]
        assert np.array_equal(t.mul, z3) and not t.mul.flags.writeable
        with pytest.raises(ValueError):
            t.inv[1] = 0
    # a given array is copied, not frozen
    given = np.array(z3)
    FiniteGroupTable(given)
    given[0, 0] = 0


def test_table_passes_match_the_element_loops():
    # orders, inverses, closures, breadth-first expressions, the derived
    # subgroup, subtables, the centre, nilpotency and associativity, each
    # against its per-element loop in reference.py, on every catalog table,
    # on D(256), Q(64) and Z(2)^6 and on A(5); associativity also on
    # tables with two entries of a row swapped, whose identity and inverses
    # stay as they were
    rng = random.Random(4)
    tables = [builtin_group(spec).group for spec in CATALOG_SPECS + ["D(256)", "Q(64)", "Z(2)^6"]]
    for t in tables + [alternating5_table()]:
        assert t.orders.tolist() == element_orders(t), t.name
        assert t.inv.tolist() == inverses(t), t.name
        gens = generating_sequence(t)
        assert t.closure(gens) == frozenset(range(t.n)) == closure_walk(t, gens), t.name
        for gens in [gens[::-1]] + [rng.sample(range(t.n), min(k, t.n)) for k in (1, 2, 2, 3)]:
            assert bfs_expressions(t, gens) == expressions_walk(t, gens), (t.name, gens)
            H = t.closure(gens)
            assert H == closure_walk(t, gens), (t.name, gens)
            assert np.array_equal(t.subtable(H)[0].mul, subtable_walk(t, H)), (t.name, gens)
            assert t.derived_subgroup(H) == derived_subgroup_walk(t, H), (t.name, gens)
        D = t.derived_subgroup()
        assert D == derived_subgroup_walk(t) and t.is_solvable() == (t.n != 60), t.name
        assert np.array_equal(t.subtable(D)[0].mul, subtable_walk(t, D)), t.name
        assert t.center_set() == centre_walk(t), t.name
        assert t.is_abelian() == (len(centre_walk(t)) == t.n), t.name
        assert t.is_nilpotent() == is_nilpotent_walk(t), t.name
        assert is_associative_walk(t), t.name
        t.check_associativity()
    for t in [tables[CATALOG_SPECS.index("S(4)")], tables[-1], builtin_group("Z(66)").group]:
        rows = t.mul.copy()
        a, b, c = 5, 10, 11
        assert 0 not in (rows[a, b], rows[a, c])
        rows[a, [b, c]] = rows[a, [c, b]]
        bad = FiniteGroupTable(rows)
        assert not is_associative_walk(bad), t.name
        with pytest.raises(GroupSpecError, match="not associative"):
            bad.check_associativity()


def test_center_orders():
    for spec, want in [("D(8)", 2), ("Q(8)", 2), ("S(4)", 1), ("Z(12)", 12), ("D(12)", 2),
                       ("Dstar(48)", 2), ("Z(2)*S(4)", 2), ("Z(3)*D(8)", 6)]:
        t = builtin_group(spec).group
        n = len(t)
        central = {z for z in range(n) if all(t.mul[z, g] == t.mul[g, z] for g in range(n))}
        assert t.center_set() == central and len(central) == want, spec


def test_minimal_normal_subgroup():
    s4 = builtin_group("S(4)").group
    M = minimal_normal_subgroup(s4)
    assert len(M) == 4 and s4.is_normal(M)
    q8 = builtin_group("Q(8)").group
    M = minimal_normal_subgroup(q8)
    assert len(M) == 2  # the center


def test_conjugates_and_normality_against_the_table():
    # conjugates and is_normal read the conjugation table; against g x g^-1
    # from the multiplication table, on every element and every subgroup
    for spec in ["S(4)", "D(12)", "Q(8)", "A(4)", "Z(3)*D(8)", "Dstar(24)", "M(7,6,3)"]:
        t = builtin_group(spec).group
        mul, inv = t.mul, t.inv
        for x in range(t.n):
            assert t.conjugates(x) == {mul[mul[g, x], inv[g]] for g in range(t.n)}, spec
        lat = all_subgroups(t)
        normal = [H for H in lat.subgroups
                  if all(mul[mul[g, x], inv[g]] in H for g in range(t.n) for x in H)]
        assert [H for H in lat.subgroups if t.is_normal(H)] == normal, spec
        assert len(normal) > 1, spec


def test_layer_constants():
    lay = builtin_group("S(4)").layers[2]
    assert (lay.zeta, lay.c_chi, lay.kappa, lay.alpha) == (1, 1, 1, 1)
    lay = builtin_group("D(8)").layers[2]
    assert lay.c_chi == 0  # non-split
    assert lay.alpha == 2  # two complemented trivial factors
    lay = builtin_group("Z(2)^2").layers[1]
    assert (lay.zeta, lay.kappa, lay.alpha) == (0, 1, 2) and lay.c_chi == 1
    a4 = builtin_group("A(4)")
    assert a4.layers[1].kappa == 2  # endomorphisms of the plane under Z_3 form F_4


def test_complement_counts():
    s4 = builtin_group("S(4)")
    assert complement_count(s4, 2) == 4
    q8 = builtin_group("Q(8)")
    assert complement_count(q8, 2) == 0
    z22 = builtin_group("Z(2)^2")
    assert complement_count(z22, 1) == 2
    d12 = builtin_group("D(12)")
    assert complement_count(d12, 2) == 3


def test_complement_count_vs_lattice_scan():
    # third, fully independent path: scan all subgroups for complements
    for spec in ["D(8)", "Q(8)", "D(12)", "A(4)", "S(4)", "Dstar(12)", "M(5,4,2)",
                 "D(16)", "Z(3)*D(8)", "Dstar(24)", "D(24)", "Z(2)*S(4)"]:
        tw = builtin_group(spec)
        for level, lay in enumerate(tw.layers):
            ext = lay.group
            kernel = {layer_enc(lay, e, 0) for e in range(lay.E)}
            lat = all_subgroups(ext)
            scan = sum(
                1
                for sub in lat.subgroups
                if len(sub & kernel) == 1 and len(sub) * lay.E == len(ext)
            )
            assert scan == complement_count(tw, level), (spec, level)


def test_aut_orders():
    assert aut_order(builtin_group("D(8)").group) == 8
    assert aut_order(builtin_group("Q(8)").group) == 24
    assert aut_order(builtin_group("S(4)").group) == 24
    assert aut_order(builtin_group("D(12)").group) == 12
    assert aut_order(builtin_group("A(4)").group) == 24
    # the largest catalog search (Z(2)*S(4): 768 tuples) stays under the
    # tuple cap; Z(2)^5 (31^5 tuples) and Z(2)^6 do not
    assert aut_order(builtin_group("Z(2)*S(4)").group) == 48
    for spec, tuples in (("Z(2)^5", 31**5), ("Z(2)^6", 63**6)):
        with pytest.raises(CapExceeded, match="would try %d candidate" % tuples):
            aut_order(builtin_group(spec).group)


def test_aut_by_lifting_recursion():
    for spec, want in [("D(8)", 8), ("Q(8)", 24), ("D(12)", 12), ("A(4)", 24),
                       ("S(4)", 24)]:
        assert aut_order_by_lifting(builtin_group(spec)) == want


def test_find_isomorphism():
    d6 = builtin_group("D(6)").group
    s3 = builtin_group("S(3)").group
    f = find_isomorphism(d6, s3)
    assert f is not None
    assert find_isomorphism(builtin_group("D(8)").group, builtin_group("Q(8)").group) is None


def test_section_independence_under_relabelling():
    # chief-series extraction on a relabelled table picks different sections,
    # hence a cohomologous but different cocycle; all counts must agree
    from solvquot.counting import epi_count
    from solvquot.presentations import builtin_presentation

    rng = random.Random(23)
    P = builtin_presentation("bs", 1, 3)
    for spec in ["D(12)", "Q(8)", "S(4)"]:
        base = builtin_group(spec)
        want = epi_count(P, base, with_aut=False).epi
        t = base.group
        for _ in range(3):
            perm = [0] + rng.sample(range(1, len(t)), len(t) - 1)
            shuffled = relabel(t, perm)
            tower = chief_series(shuffled)
            assert epi_count(P, tower, with_aut=False).epi == want


def sl23_table():
    """SL(2,3) as a raw multiplication table (reachable only through
    chief_series of a user table; there is no builtin for it)."""
    import itertools

    mats = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 1:
            mats.append((a, b, c, d))
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    return FiniteGroupTable([[index[mul(x, y)] for y in mats] for x in mats],
                            name="SL(2,3)")


def test_series_automorphisms():
    # the automorphism rows are distinct automorphisms, and the series
    # automorphisms are the rows that fix every chain term as defined by the
    # projections; each level's orbit group is their distinct images mod
    # |B_i|
    for spec, order, series in [("D(48)", 192, 192), ("Z(2)^4", 20160, 64),
                                ("Z(2)*S(4)", 48, 24), ("Z(3)*D(8)", 16, 16)]:
        tw = builtin_group(spec)
        table, top = tw.group, len(tw.layers)
        rows = automorphisms(table)
        assert rows.shape == (order, table.n) == (aut_order(table), table.n)
        assert len({tuple(r) for r in rows.tolist()}) == order
        mul = table.mul
        assert all((mul[r[:, None], r[None, :]] == r[mul]).all() for r in rows[:50].astype(int))
        kernels = [{x for x in range(table.n) if tw.project(x, i) == 0}
                   for i in range(top + 1)]
        fixing = [r for r in rows.tolist() if all({r[x] for x in N} == N for N in kernels)]
        assert len(fixing) == series, spec
        for level in range(1, top):
            nB = len(tw.level_group(level))
            images = {tuple(tw.project(r[b], level) for b in range(nB)) for r in fixing}
            got = tw.orbit_group(level).rows.tolist()
            assert sorted(map(tuple, got)) == sorted(images), (spec, level)


def test_pruned_search_matches_every_tuple_tried(monkeypatch):
    # the search that grows the image tuples generator by generator, keeping
    # a prefix only where it is a homomorphism on the subgroup its
    # generators generate, finds the same rows in the same order as trying
    # every tuple: homomorphisms between catalog groups (candidates of
    # dividing order, as reference.homomorphism_rows takes them) and the complement
    # sections of every layer of every catalog tower.  These searches fit in
    # one block, so a small block makes them prune and split, too
    towers = {spec: builtin_group(spec) for spec in CATALOG_SPECS}
    for block in (groups.SEARCH_BLOCK, 1 << 10):
        monkeypatch.setattr(groups, "SEARCH_BLOCK", block)
        for spec in ["S(4)", "D(12)", "Q(8)", "Z(2)*Z(4)", "A(4)", "D(16)", "M(7,3,2)"]:
            src = towers[spec].group
            gens = generating_sequence(src)
            for tw in towers.values():
                dst = tw.group
                cands = [np.flatnonzero(src.orders[g] % dst.orders == 0) for g in gens]
                got = np.concatenate(list(_homomorphism_blocks(src, gens, dst, cands)))
                assert np.array_equal(got, homomorphism_rows_unpruned(src, gens, dst, cands))
        for tw in towers.values():
            for lay in tw.layers[1:]:
                nB = len(lay.base)
                fibres = [range(g, lay.E * nB, nB) for g in lay._base_gens]
                want = homomorphism_rows_unpruned(lay.base, lay._base_gens, lay.group, fibres)
                assert np.array_equal(lay._complement_sections(), want), tw.spec


def _series_filtered(tw):
    """The rows of the full automorphism search that map every chain term
    into itself."""
    auts = automorphisms(tw.group)
    keep = np.ones(len(auts), dtype=bool)
    inside = np.zeros(len(tw.group), dtype=bool)
    for N in tw.chain_in_group()[1:-1]:
        inside[:] = False
        inside[N] = True
        keep &= inside[auts[:, N]].all(axis=1)
    return auts[keep]


def test_series_search_equals_the_filtered_full_search():
    # the search restricted to images of the same order and chain depth
    # finds exactly the series-fixing rows of the full search, in its order;
    # on Z(3)*Q(8), Z(4)*D(8) and S(4)*Z(2)^2 some automorphisms that keep
    # the generators' depths lower another element's depth
    specs = dict.fromkeys(CATALOG_SPECS + NILPOTENT_CATALOG_SPECS
                          + ["Z(4)*D(8)", "S(4)*Z(2)^2", "D(128)", "Dstar(128)", "Q(64)"])
    for spec in specs:
        tw = builtin_group(spec)
        rows = tw._series_automorphisms()
        assert rows.dtype == np.int32 and not rows.flags.writeable
        assert np.array_equal(rows, _series_filtered(tw)), spec


@pytest.mark.slow
def test_series_search_on_d256():
    tw = builtin_group("D(256)")
    rows = tw._series_automorphisms()
    assert len(rows) == 8192 and np.array_equal(rows, _series_filtered(tw))
    # 8192 rows of 256 entries, and Z(2)^6's 32768 rows of 64, both 2^21
    # entries, fit under the entry cap
    assert len(builtin_group("Z(2)^6")._series_automorphisms()) == 32768


def test_series_search_refused_past_its_entry_cap(monkeypatch):
    # D(48)'s 192 series automorphisms keep 192 * 48 = 9216 entries: found
    # under a cap of 9216, refused under 9215, and the refusal is kept
    monkeypatch.setattr(groups, "SERIES_ENTRY_CAP", 9216)
    assert len(builtin_group("D(48)")._series_automorphisms()) == 192
    monkeypatch.setattr(groups, "SERIES_ENTRY_CAP", 9215)
    tw = builtin_group("D(48)")
    with pytest.raises(CapExceeded, match="would keep at least 9216 image entries"):
        tw._series_automorphisms()
    monkeypatch.setattr(groups, "SERIES_ENTRY_CAP", 9216)
    with pytest.raises(CapExceeded, match="would keep at least 9216 image entries"):
        tw._series_automorphisms()


def test_series_search_charges_its_prefix_stages(monkeypatch):
    # Z(2)^5*D(8) has seven generators; its stage for the first five would
    # keep 32768 prefixes of 256 entries, past the entry cap, so the search
    # is refused there, before the sixth generator is tried
    tw = builtin_group("Z(2)^5*D(8)")
    extended = []
    real = groups._extensions
    monkeypatch.setattr(groups, "_extensions",
                        lambda src, gens, *args: extended.append(len(gens)) or real(src, gens, *args))
    with pytest.raises(CapExceeded, match="would keep at least 4223488 image entries"):
        tw._series_automorphisms()
    assert len(generating_sequence(tw.group)) == 7 and max(extended) == 5


def test_series_search_on_elementary_abelian_towers():
    # Z(2)^5 with one generator per layer: 16 * 8 * 4 * 2 * 1 candidate
    # tuples, each an automorphism (the unitriangular group), where the full
    # search refuses 28629151
    tw = builtin_group("Z(2)^5")
    assert len(tw._series_automorphisms()) == 1024
    assert [len(tw.orbit_group(i)) for i in range(1, 6)] == [1, 2, 8, 64, 1024]
    with pytest.raises(CapExceeded, match="would try 28629151 candidate"):
        automorphisms(tw.group)
    # Z(2)^9 would need 2^36 tuples: refused before the search starts, and
    # again on the next call from the kept refusal
    tw = builtin_group("Z(2)^9")
    start = time.perf_counter()
    for _ in range(2):
        with pytest.raises(CapExceeded, match="would try 68719476736 candidate"):
            tw._series_automorphisms()
    assert time.perf_counter() - start < 1.0


def test_sl23_from_table():
    from solvquot.counting import epi_count
    from solvquot.presentations import builtin_presentation

    t = sl23_table()
    assert len(t) == 24 and t.is_solvable() and not t.is_nilpotent()
    tower = chief_series(t)
    assert sorted(lay.E for lay in tower.layers) == [2, 3, 4]
    assert aut_order(tower.group) == 24
    # the binary tetrahedral group is a braid-group quotient in two ways
    B3 = builtin_presentation("braid", 3)
    rep = epi_count(B3, tower)
    assert rep.delta == 2
    # not isomorphic to the symmetric group of the same order
    assert not is_isomorphic(tower.group, builtin_group("S(4)").group)


def test_tower_projection_and_vectors():
    tw = builtin_group("S(4)")
    top = len(tw.layers)
    for x in (0, 5, 17, 23):
        # layer j's coordinates are those of x's image in the level-(j + 1) group
        assert element_vectors(tw, x) == tuple(
            kernel_vector(lay, layer_dec(lay, tw.project(x, j + 1))[0])
            for j, lay in enumerate(tw.layers))
        assert tw.project(x, 0) == 0
    # chain term i is the kernel of the projection onto level i
    chain = tw.chain_in_group()
    assert [c.tolist() for c in chain] == [
        [x for x in range(24) if tw.project(x, i) == 0] for i in range(top + 1)]
    assert [len(c) for c in chain] == [24, 12, 4, 1]


def test_layer_verify_rejects_corrupted_data():
    # each check of ElementaryLayer.verify, on a copy of a built layer with
    # one kind of damage to sigma or chi
    def corrupted(lay, **data):
        bad = copy.copy(lay)
        for name, value in data.items():
            setattr(bad, name, value)
        return bad

    s4_top = builtin_group("S(4)").layers[-1]  # Z_2^2 under S_3
    s4_top.verify()
    b = next(b for b in range(6) if (s4_top.sigma[b] != s4_top.sigma[0]).any())
    sigma = s4_top.sigma.copy()
    sigma[b] = sigma[0]
    with pytest.raises(GroupSpecError, match="monodromy is not a homomorphism"):
        corrupted(s4_top, sigma=sigma).verify()

    d8_top = builtin_group("D(8)").layers[-1]  # central Z_2 under Z_2^2, non-split
    d8_top.verify()
    chi = d8_top.chi.copy()
    chi[0, 1] = 1
    with pytest.raises(GroupSpecError, match="cocycle is not normalized"):
        corrupted(d8_top, chi=chi).verify()
    chi = d8_top.chi.copy()
    chi[1, 2] = (chi[1, 2] + 1) % 2
    with pytest.raises(GroupSpecError, match="2-cocycle identity fails"):
        corrupted(d8_top, chi=chi).verify()

    a4_top = builtin_group("A(4)").layers[-1]  # Z_2^2 under Z_3, s = 2
    a4_top.verify()
    nB = len(a4_top.base)
    trivial = corrupted(a4_top, sigma=np.broadcast_to(np.eye(2, dtype=np.int64), (nB, 2, 2)),
                        chi=np.zeros((nB, nB, 2), dtype=np.int64))
    with pytest.raises(GroupSpecError, match="not a minimal normal subgroup"):
        trivial.verify()


def tower_digest(tw):
    """sha256 over the top table, its inverses, the source isomorphism and,
    per layer, sigma, chi, sigma_perm, chi_num, the complement sections,
    zeta, kappa, alpha and the complement count.  sigma_perm[b][e] and
    chi_num[b][c] are the numbers of sigma_b e and chi(b, c), little-endian
    in base q."""
    h = hashlib.sha256()
    items = [tw.group.mul, tw.group.inv, tw.source_iso]
    for lay in tw.layers:
        sig, ch = lay.sigma, lay.chi
        powers = lay.q ** np.arange(lay.s)
        vecs = np.arange(lay.E)[:, None] // powers % lay.q
        sigma_perm = np.einsum("bac,ec->bea", sig, vecs) % lay.q @ powers
        items += [lay.sigma, lay.chi, sigma_perm, ch @ powers, lay.sections,
                  lay.zeta, lay.kappa, lay.alpha, lay.complements]
    for x in items:
        h.update(json.dumps(np.asarray(x).tolist()).encode() + b";")
    return h.hexdigest()


# tower_digest of builtin_group(spec), recorded from the towers built by
# per-entry Python loops before the layers were built with array passes
TOWER_DIGESTS = {
    "Z(2)":
        "74d2c11faff5862e5f71ae35612327f8ef1af224848a319042e0c949018bd7c0",
    "Z(3)":
        "b23fe3e367ce93600491d56ba38f6321a8635c803c4ac92cffe1a0770d864a6e",
    "Z(4)":
        "e63b96de12a4b3b02d9047895c7467262839f5aa1de03cd567ba8b76d0dea576",
    "Z(5)":
        "b887a3bfcd88dd15873a41ad785d5210a482509efc1307c59be6db4ef35a7065",
    "Z(6)":
        "3db55201c76f4195fa1f84f85d07aef78f0707aa9642f2d4cb64404fde3f2df6",
    "Z(2)^2":
        "78e869ee9d8b4923615ae8163ff5f37ef17dac844c9185a217ea56aff29167dc",
    "Z(8)":
        "e7f320bc8a619095cf941a5886818bf497702423f6763aba1f0ab9e0f00e3a09",
    "Z(2)*Z(4)":
        "16a43a03465714fc21aa590b406ceffc70898c5f617e833ff3ac9242175938a1",
    "Z(2)^3":
        "9ce26203c67c6c416caeaab52f9223ed6b1b7fda8e8396e09d1c6fdc5192638f",
    "Z(9)":
        "17714831f87c60eb8f5ca7590099cc31b868489df9ac4c0bd271e1296ae93d69",
    "Z(3)^2":
        "7e9b485f0837aa47aeb5341bc78f9d5e475aed9fb85075b20c174bb1d5d4f07c",
    "Z(12)":
        "a05d2e6978a934882da44aeb990a02c9ed6d727a69b9657f329cfec65ea7c6fa",
    "Z(2)*Z(6)":
        "2e73220b8fdd62b2c0fca27660ae6745a1feb1ee18bba3958866838740beaf8d",
    "D(6)":
        "3f17b668f8da7b79c56a49a041ca40d72b560625e8aa76c87afb412fe9fe11ec",
    "D(8)":
        "a51d2dbcfe896afd795cb8afc86036f9ee22e8ff1c76c1ee82158d5b0e37456e",
    "D(10)":
        "c8f56fc513bfb2da3b711e6735c2a7d9feccb63d65e56bd52eb7356fcce0ed76",
    "D(12)":
        "8f398f881308064232ee83c2afbb034942234f6d1ebd04964e303388badf5b2f",
    "D(14)":
        "05c52ee07513b58393def739417244322ec2561bd5a6a434757ace6b33de8a7c",
    "D(16)":
        "16d628f5643d79472561aba887b16e6b47d5c2388cae45e37c989b859648a135",
    "D(18)":
        "bba956f2daefd06e6db396288a760eb04a806959cd56f5de7ab190f7a54219a8",
    "D(20)":
        "70bc4fca45f98737bea351c0cf5993d867eb991093263f613041df9682b16e50",
    "D(24)":
        "22b73a2c13d81e0a06ebe3b56ba656d1cbea043019c4d79ca69c842c0eca1f93",
    "D(48)":
        "4c07518ed381e17f30c408dbcd5358f25c7db360a6f29f91a77370cab609a9f9",
    "Q(8)":
        "7d3d0dd5567b345a280d9c3cec8982c5a785568d44fc92ec0fcead924b3c3683",
    "Dstar(12)":
        "2063e19654db20621ad066f105f72af75ff0fb56030e6edcb41dfd21e55cd9e7",
    "Q(16)":
        "8ffe96bdb2a13f3095db066409baec542ee5478a847592965a27be2ee4aca581",
    "Dstar(20)":
        "2c399babfa90f49140545a060312a8ad21569fa8459d195787b004a5c1c57564",
    "Dstar(24)":
        "6f3200ffce291966b74d403aed12f290471193de2a6d815140bce222ccfa1988",
    "Dstar(48)":
        "21f379dfcf5162209e90fef11758d76639252a5c9cf3f69b4b54870837b01b21",
    "A(4)":
        "7e49a4a980568d1cac2a393db68693aa7af29396b836b6b01431089659bff6b4",
    "S(4)":
        "f05faf0ccf98966d79be3e0966cc3c1b5308210ed1c7d1b0728a7e53f2df63a9",
    "V(2,3,1)":
        "f05faf0ccf98966d79be3e0966cc3c1b5308210ed1c7d1b0728a7e53f2df63a9",
    "M(5,4,2)":
        "4b686543439cffe7c6d7e6b4d88a4107c1227f7b4c18ee15ee66bcb2b6349d84",
    "M(7,3,2)":
        "c8925c69ea8dd0755291b83776c6042954ca337bec79b1a60b7f0bf704e9ac0c",
    "M(7,6,3)":
        "04f52b422d1339e2f33367c5ef388a38dd94fa0af4b3e4638053f1c5e30bba15",
    "M(9,3,4)":
        "b4ceff3ddb152fb3533ce29632dd025592969f5dcc59b6ef8bbc69015191bd85",
    "Z(3)*D(8)":
        "ce032c94c342c076d6363872e185831264ff99487ab05f28ac2300e1fec6aa66",
    "Z(2)*A(4)":
        "0a76db0d80930d33e04755e35e4c82ef76f28c872c2fee706be7dff05a87232f",
    "Z(2)*S(4)":
        "7255f33aeda3adef8e18ed95b0e156b5ca3487ce1ccc2bb984cbd221bc560c21",
    "Z(16)":
        "d5e4b83d65ca58865bee2fd2f861b673191102c59c533da759bebbd6de428627",
    "Z(4)^2":
        "4c88a2de2d0233e27cf3f21809918070a02108393ab5cdb731e09616b31e4336",
    "Z(2)^2*Z(4)":
        "026d6b8948b46a95c023f1d886037afa6aa6cb27d0947d2bf0034c630c97fdec",
    "Z(2)^4":
        "2707d7d66ecf23c0d5cd684a15c3dd7a0848961162c2b0a241ae03fd6ac595b5",
    "Z(27)":
        "02a122466778eac1bac4f648d95ee23e8345acd135617ddff02d58bfd2cbe2c5",
    "Z(2)*D(8)":
        "361016b256f983230200601abb7d526788b6a1a70dc9cb61c559be3513d8eee6",
    "Z(2)*Q(8)":
        "fa3c51c1be8b12a0474c8ce01486d3b4d564c1b7bb623fa4bc2807e053b67acd",
    "Q(32)":
        "4a1471d5fe9210d9993da5e4e57a15ad632ab5fc906a17558256860673ae55a2",
    "Z(3)*Q(8)":
        "71a785478d5c24400e8d89617e37645274cbf79a920d72207664b0e73a5525e3",
    "Z(2)^5":
        "d69b3eb913d36ec3a59df1fa63d12eadfac3e68855be195898d3a448ffdf306c",
    "Z(3)*S(4)":
        "5b959581907905dc3bbdbf1d496814a9a47fef2248a5c0a3ef8f0f4bccd75d24",
    "Z(2)*D(16)":
        "20bc3e293363b04953c5f67a4b4bd48ef640df7939936a1727531c354985439f",
}


def test_tower_digests():
    assert set(CATALOG_SPECS + NILPOTENT_CATALOG_SPECS) <= set(TOWER_DIGESTS)
    for spec, want in TOWER_DIGESTS.items():
        assert tower_digest(builtin_group(spec)) == want, spec


def test_layer_data_are_read_only_arrays():
    # every layer of every catalog tower keeps sigma and chi as read-only
    # int64 arrays, so nothing changes them after verify
    for spec in CATALOG_SPECS:
        for lay in builtin_group(spec).layers:
            nB, s = len(lay.base), lay.s
            for data, shape in [(lay.sigma, (nB, s, s)), (lay.chi, (nB, nB, s))]:
                assert isinstance(data, np.ndarray) and data.dtype == np.int64, spec
                assert data.shape == shape and not data.flags.writeable, spec
            with pytest.raises(ValueError):
                lay.chi[0, 0] = 1


LARGE_TOWER_DIGESTS = {
    "D(256)":
        "acd629a0b636654fa3404c1be3f7d24c28d0b13fd27729355566881e92158585",
    "Dstar(128)":
        "3fc6536ce7fc2f448d1f3256f73f14b6108601100f94dc7582e03cb14fca5205",
    "Z(2)*S(4)*Z(2)^2":
        "c377d673345390a86f6960ca3789377e16a496bd5000cb22e2bc584f2cc8132f",
    "Z(2)^9":
        "36cc47574ef70c89e867942f6a98560fd67bc9d5a0c759dd03c4baaaa6fbe8b0",
}


@pytest.mark.slow
def test_towers_at_the_order_cap():
    # Z(2)^9's top layer has a base of order 256, past the exhaustive
    # 2-cocycle check, so verify takes its sampled-triples branch
    rng = random.Random(5)
    for spec, want in LARGE_TOWER_DIGESTS.items():
        tw = builtin_group(spec)
        tw.verify()
        assert tower_digest(tw) == want, spec
        table = tw.group
        n = len(table)
        for _ in range(2000):
            x, y = rng.randrange(n), rng.randrange(n)
            assert mul_structural(tw, x, y) == table.mul[x, y], spec
            assert inv_structural(tw, x) == table.inv[x], spec
