import random

import pytest

from solvquot.counting import aut_order_by_lifting
from solvquot.groups import (
    CapExceeded,
    FiniteGroupTable,
    GroupElement,
    GroupSpecError,
    aut_order,
    builtin_group,
    chief_series,
    complement_count,
    find_isomorphism,
    is_isomorphic,
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
    with pytest.raises(CapExceeded):
        builtin_group("Z(2)^10")


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
    for spec in ["D(8)", "Q(8)", "S(4)", "Dstar(12)"]:
        tw = builtin_group(spec)
        table = tw.group
        for x in range(len(table)):
            assert tw.inv_structural(x) == table.inv[x]
            for y in range(len(table)):
                assert tw.mul_structural(x, y) == table.mul[x][y]
        e = GroupElement(tw, 3)
        assert (e * e.inverse()).index == 0
    with pytest.raises(ValueError):
        GroupElement(builtin_group("D(8)"), 1) * GroupElement(builtin_group("Q(8)"), 1)


def test_d8_relations_in_coordinates():
    # b a b = a^-1 in the source coordinate table of the dihedral group
    tw = builtin_group("D(8)")
    t = tw.source_table
    a, b = 1, 4  # coordinates (u=1,v=0) and (u=0,v=1)
    assert t.order_of(a) == 4 and t.order_of(b) == 2
    assert t.mul[t.mul[b][a]][b] == t.inv[a]


def test_q8_square_relation():
    # every order-4 element squares to the unique central involution
    tw = builtin_group("Q(8)")
    t = tw.group
    central = [x for x in range(1, 8) if t.order_of(x) == 2]
    assert len(central) == 1
    for x in range(8):
        if t.order_of(x) == 4:
            assert t.mul[x][x] == central[0]


def test_group_axioms_exhaustive():
    for spec in ["D(12)", "Q(16)", "S(4)", "M(7,3,2)"]:
        t = builtin_group(spec).group
        t.check_associativity()
        for x in range(len(t)):
            assert t.mul[x][t.inv[x]] == 0 == t.mul[t.inv[x]][x]


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


def test_minimal_normal_subgroup():
    s4 = builtin_group("S(4)").group
    M = minimal_normal_subgroup(s4)
    assert len(M) == 4 and s4.is_normal(M)
    q8 = builtin_group("Q(8)").group
    M = minimal_normal_subgroup(q8)
    assert len(M) == 2  # the center


def test_layer_constants():
    s4 = builtin_group("S(4)")
    assert s4.layer_constants(2) == (1, 1, 1, 1)
    d8 = builtin_group("D(8)")
    assert d8.layer_constants(2)[1] == 0  # non-split
    assert d8.layer_constants(2)[3] == 2  # two complemented trivial factors
    z22 = builtin_group("Z(2)^2")
    zeta, c_chi, kappa, alpha = z22.layer_constants(1)
    assert (zeta, kappa, alpha) == (0, 1, 2) and c_chi == 1
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
            kernel = {lay.enc(e, 0) for e in range(lay.E)}
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
    with pytest.raises(CapExceeded):
        aut_order(builtin_group("S(4)").group, cap=10)
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
            shuffled = t.relabel(perm)
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
        vecs = tw.element_vectors(x)
        assert tw.element_from_vectors(vecs) == x
        assert tw.project(x, top, 0) == 0
    chain = tw.chain_in_group()
    assert len(chain[0]) == 24 and chain[-1] == frozenset({0})
    assert [len(c) for c in chain] == [24, 12, 4, 1]
