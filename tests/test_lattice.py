import pytest
from reference import eulerian_via_moebius, hall_identities, leq

from solvquot.counting import epi_count, gaschutz_eulerian, hom_count
from solvquot.groups import CapExceeded, builtin_group
from solvquot.lattice import (
    all_subgroups,
    moebius,
    moebius_kt,
    moebius_weisner,
)
from solvquot.presentations import builtin_presentation, factorize


def moebius_number(n):
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return (-1) ** len(fac)


def test_subgroup_counts():
    assert len(all_subgroups(builtin_group("Z(6)").group)) == 4
    assert len(all_subgroups(builtin_group("D(8)").group)) == 10
    assert len(all_subgroups(builtin_group("S(4)").group)) == 30
    assert len(all_subgroups(builtin_group("Z(2)^4").group)) == 67
    with pytest.raises(CapExceeded):
        all_subgroups(builtin_group("S(4)").group, cap=10)


def test_lattice_is_closed_under_joins():
    # the subgroups are the closures of their generators, every cyclic
    # subgroup is one, and the join of any two (the closure of all their
    # elements) is one: together, the whole lattice
    for spec in ["Q(8)", "Dstar(12)", "S(4)", "D(16)", "Z(2)*A(4)", "Z(2)^4"]:
        t = builtin_group(spec).group
        lat = all_subgroups(t)
        for i, sub in enumerate(lat.subgroups):
            assert t.closure(lat.generators_of(i)) == sub, (spec, i)
        found = set(lat.subgroups)
        assert {t.closure([x]) for x in range(t.n)} <= found, spec
        for i, a in enumerate(lat.subgroups):
            for b in lat.subgroups[:i]:
                assert t.closure(a | b) in found, (spec, sorted(a), sorted(b))


def test_dihedral_lattice_structure():
    # one subgroup Z_l and m/l of dihedral type per divisor l of m
    for m in (3, 4, 6, 8):
        tw = builtin_group("D(%d)" % (2 * m))
        t = tw.source_table
        lat = all_subgroups(t)
        rotations = set(range(m))  # coordinates v*m+u with v = 0
        for l in range(1, m + 1):
            if m % l:
                continue
            cyc = [s for s in lat.subgroups if len(s) == l and s <= rotations]
            dih = [s for s in lat.subgroups if len(s) == 2 * l and not (s <= rotations)]
            assert len(cyc) == 1
            assert len(dih) == m // l


def test_moebius_inductive_d6():
    lat = all_subgroups(builtin_group("D(6)").group)
    mu = moebius(lat)
    vals = sorted(zip(lat.orders, mu))
    assert vals == [(1, 3), (2, -1), (2, -1), (2, -1), (3, -1), (6, 1)]


def test_moebius_defining_identity():
    for spec in ["D(8)", "Q(8)", "A(4)", "S(4)", "D(12)", "Z(2)^3"]:
        lat = all_subgroups(builtin_group(spec).group)
        mu = moebius(lat)
        for i in range(len(lat)):
            total = sum(mu[j] for j in lat.supersets(i))
            assert total == (1 if i == lat.full_index else 0)


def test_moebius_kt_matches_inductive():
    for spec in ["D(6)", "D(8)", "Q(8)", "D(12)", "A(4)", "S(4)", "Dstar(12)",
                 "M(5,4,2)", "D(16)", "Z(2)*A(4)"]:
        tw = builtin_group(spec)
        lat = all_subgroups(tw.group)
        assert moebius_kt(lat, tw.chain_in_group()) == moebius(lat), spec


def test_moebius_weisner():
    # Z_4 > Z_2: mu(Z_2) = -1, mu(1) = 0
    tw = builtin_group("Z(4)")
    lat = all_subgroups(tw.group)
    mu = moebius_weisner(tw.group, lat)
    assert mu == moebius(lat)
    assert [m for o, m in zip(lat.orders, mu) if o == 2] == [-1]
    assert mu[0] == 0
    # Q_8: mu(center) = 2 by the elementary quotient Z_2^2
    tw = builtin_group("Q(8)")
    lat = all_subgroups(tw.group)
    mu = moebius_weisner(tw.group, lat)
    assert mu == moebius(lat)
    assert [m for o, m in zip(lat.orders, mu) if o == 2] == [2]
    # Z_2^2: mu(1) = 2
    tw = builtin_group("Z(2)^2")
    lat = all_subgroups(tw.group)
    assert moebius_weisner(tw.group, lat)[0] == 2
    from solvquot.groups import GroupSpecError

    with pytest.raises(GroupSpecError):
        s4 = builtin_group("S(4)")
        moebius_weisner(s4.group, all_subgroups(s4.group))


def test_dihedral_moebius_closed_form():
    # mu(Z_l) = -(m/l) mu(m/l) and mu(D_2l) = mu(m/l), mu number-theoretic
    for m in range(2, 9):
        tw = builtin_group("D(%d)" % (2 * m))
        t = tw.source_table
        lat = all_subgroups(t)
        mu = moebius(lat)
        rotations = set(range(m))
        for i, sub in enumerate(lat.subgroups):
            if sub <= rotations:
                l = len(sub)
                assert mu[i] == -(m // l) * moebius_number(m // l), (m, l)
            else:
                l = len(sub) // 2
                assert mu[i] == moebius_number(m // l), (m, l)


def test_hall_identities():
    F2 = builtin_presentation("free", 2)
    rep = hall_identities(F2, builtin_group("S(3)").group)
    assert rep["hom"] == 36 and rep["epi"] == 18
    assert rep["hom_identity_holds"] and rep["epi_identity_holds"]
    # |Hom(G, Z_p)| = |Epi(G, Z_p)| + 1
    for p in (3, 5):
        rep = hall_identities(F2, builtin_group("Z(%d)" % p).group)
        assert rep["hom"] == rep["epi"] + 1
        assert rep["hom_identity_holds"] and rep["epi_identity_holds"]
    for spec in ["D(8)", "A(4)", "Q(8)", "D(12)"]:
        rep = hall_identities(F2, builtin_group(spec).group)
        assert rep["hom_identity_holds"] and rep["epi_identity_holds"], spec


def test_dihedral_moebius_inversion_matches_engine():
    # Hall inversion over the dihedral lattice: the m/l subgroups of type
    # D_2l carry mu(m/l) each and the one Z_l carries -(m/l) mu(m/l), so
    # |Epi(G, D_2m)| = sum over l | m of (m/l) mu(m/l) (hom(D_2l) - hom(Z_l))
    for label in ["free(2)", "klein", "bs(1,3)", "braid(3)"]:
        from solvquot.presentations import builtin_from_string

        P = builtin_from_string(label)
        for m in (2, 3, 4, 6, 8):
            total = 0
            for l in range(1, m + 1):
                if m % l:
                    continue
                dl = builtin_group("D(%d)" % (2 * l)) if l > 1 else builtin_group("Z(2)")
                zl = builtin_group("Z(%d)" % l)
                total += (m // l) * moebius_number(m // l) * (
                    hom_count(P, dl) - hom_count(P, zl)
                )
            want = epi_count(P, builtin_group("D(%d)" % (2 * m)), with_aut=False).epi
            assert total == want, (label, m)


def test_eulerian_via_moebius():
    for spec in ["S(3)", "D(8)", "Q(8)", "A(4)", "S(4)", "M(7,6,3)"]:
        tw = builtin_group(spec)
        lat = all_subgroups(tw.group)
        mu = moebius(lat)
        for n in (1, 2, 3):
            assert eulerian_via_moebius(lat, mu, n) == gaschutz_eulerian(tw, n)


def test_lattice_meet_join():
    lat = all_subgroups(builtin_group("S(4)").group)
    for i in (0, 3, 10, len(lat) - 1):
        for j in (1, 5, len(lat) - 1):
            m = lat.meet(i, j)
            assert leq(lat, m, i) and leq(lat, m, j)
            jn = lat.join(i, j)
            assert leq(lat, i, jn) and leq(lat, j, jn)
