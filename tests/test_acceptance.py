"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.
All equalities are exact integer arithmetic (tolerance zero).

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion lines.
"""

import time

from reference import (
    build_system,
    closed_form_delta,
    closed_form_eulerian,
    complement_count,
    eulerian_via_moebius,
    homomorphism_rows,
    lifts_by_base_map,
    solution_vectors,
    solve_system,
)

from solvquot.counting import (
    aut_order_by_lifting,
    epi_count,
    gaschutz_eulerian,
    hom_count,
)
from solvquot.groups import (
    CATALOG_SPECS,
    NILPOTENT_CATALOG_SPECS,
    aut_order,
    builtin_group,
)
from solvquot.lattice import (
    all_subgroups,
    moebius,
    moebius_kt,
    moebius_weisner,
)
from solvquot.oracle import brute_epi, brute_hom, brute_hom_images
from solvquot.presentations import (
    builtin_from_string,
    builtin_presentation,
    factorize,
)
from solvquot.subgrowth import ak_normal, ak_sequence, low_index_via_deltas

_TOWERS = {}


def tower(spec):
    if spec not in _TOWERS:
        _TOWERS[spec] = builtin_group(spec)
    return _TOWERS[spec]


def report(num, label, started):
    print("PASS criterion %2d (%s) in %.1fs" % (num, label, time.time() - started))


def test_criterion_01_free_group_closed_forms():
    t0 = time.time()
    for m in range(2, 13):
        tw = tower("D(%d)" % (2 * m))
        for n in (1, 2, 3):
            P = builtin_presentation("free", n)
            assert epi_count(P, tw, with_aut=False).epi == closed_form_eulerian(
                "dihedral", (m,), n
            )
    for m in range(2, 7):
        tw = tower("Dstar(%d)" % (4 * m))
        for n in (1, 2, 3):
            P = builtin_presentation("free", n)
            assert epi_count(P, tw, with_aut=False).epi == closed_form_eulerian(
                "binary_dihedral", (m,), n
            )
    assert epi_count(builtin_presentation("free", 2), tower("S(4)"),
                     with_aut=False).epi == 216
    report(1, "free-group closed forms", t0)


def test_criterion_02_gaschutz_consistency():
    t0 = time.time()
    for spec in CATALOG_SPECS:
        tw = tower(spec)
        assert tw.order <= 48
        lat = all_subgroups(tw.group)
        mu = moebius(lat)
        for n in (1, 2, 3):
            P = builtin_presentation("free", n)
            engine = epi_count(P, tw, with_aut=False).epi
            assert engine == gaschutz_eulerian(tw, n), (spec, n)
            assert engine == eulerian_via_moebius(lat, mu, n), (spec, n)
    report(2, "Gaschuetz = engine = Moebius on the catalog", t0)


def test_criterion_03_baumslag_solitar_tables():
    t0 = time.time()
    d8, q8 = tower("D(8)"), tower("Q(8)")
    for m in range(1, 9):
        for absn in range(m, 9):
            for n in {absn, -absn}:
                P = builtin_presentation("bs", m, n)
                assert epi_count(P, d8).delta == closed_form_delta("bs_d8", (m, n))
                assert epi_count(P, q8).delta == closed_form_delta("bs_q8", (m, n))
    report(3, "Baumslag-Solitar delta tables on the grid", t0)


def test_criterion_04_parafree_s4():
    t0 = time.time()
    s4 = tower("S(4)")
    for m in range(1, 6):
        for n in range(1, 6):
            P = builtin_presentation("parafree", m, n)
            got = epi_count(P, s4).delta
            assert got == closed_form_delta("parafree_s4", (m, n))
            assert got in (9, 17)
    assert epi_count(builtin_presentation("klein"), s4).delta == 0
    hl = builtin_presentation("hillman_link")
    assert epi_count(hl, tower("S(3)")).delta == 3
    assert epi_count(hl, s4).delta == 33
    report(4, "parafree/S4 and the link group", t0)


def test_criterion_05_braids():
    t0 = time.time()
    B3 = builtin_presentation("braid", 3)
    B4 = builtin_presentation("braid", 4)
    B5 = builtin_presentation("braid", 5)
    assert epi_count(B3, tower("S(3)")).epi == 6
    assert epi_count(B3, tower("S(4)")).delta == 1
    assert epi_count(B4, tower("S(4)")).delta == 3
    for spec in ("S(3)", "D(8)", "A(4)"):
        assert epi_count(B5, tower(spec)).delta == 0
    for spec in ("Z(6)", "Z(4)", "Z(12)"):
        assert epi_count(B5, tower(spec)).delta == 1
    report(5, "braid group invariants", t0)


def test_criterion_06_table_of_braid_subgroup_counts():
    t0 = time.time()
    assert ak_sequence(builtin_presentation("braid", 3), 7).ak[2:] == [4, 9, 6, 22, 43]
    assert ak_sequence(builtin_presentation("braid", 4), 6).ak[2:] == [4, 17, 6, 34]
    assert ak_sequence(builtin_presentation("braid", 5), 5).ak[2:] == [1, 1, 6]
    for n in (5, 6):
        ak = ak_sequence(builtin_presentation("braid", n), 4).ak
        assert ak[2:4] == [1, 1]
    assert ak_sequence(builtin_presentation("braid", 6), 6).ak[5] == 13
    report(6, "low-index subgroups of braid groups", t0)


def test_criterion_07_moebius():
    t0 = time.time()
    for spec in CATALOG_SPECS:
        tw = tower(spec)
        lat = all_subgroups(tw.group)
        assert moebius_kt(lat, tw.chain_in_group()) == moebius(lat), spec
    for spec in NILPOTENT_CATALOG_SPECS:
        tw = builtin_group(spec)
        assert tw.order <= 32
        lat = all_subgroups(tw.group)
        assert moebius_weisner(tw.group, lat) == moebius(lat), spec
    # dihedral closed form for m <= 8

    def mu_nt(n):
        fac = factorize(n)
        return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)

    for m in range(2, 9):
        tw = builtin_group("D(%d)" % (2 * m))
        t = tw.source_table
        lat = all_subgroups(t)
        mu = moebius(lat)
        rotations = set(range(m))
        for i, sub in enumerate(lat.subgroups):
            if sub <= rotations:
                l = len(sub)
                assert mu[i] == -(m // l) * mu_nt(m // l)
            else:
                assert mu[i] == mu_nt(m // (len(sub) // 2))
    report(7, "Moebius: inductive = KT = Weisner + dihedral closed form", t0)


def test_criterion_08_complements():
    t0 = time.time()
    for spec in CATALOG_SPECS:
        tw = tower(spec)
        for level in range(len(tw.layers)):
            complement_count(tw, level)  # raises unless all three paths agree
    assert complement_count(tower("S(4)"), 2) == 4
    assert complement_count(tower("Q(8)"), 2) == 0
    report(8, "complement count formulas on all catalog layers", t0)


def test_criterion_09_aut_orders():
    # |Aut| two ways on every catalog group: the generator-image search, and
    # |Epi(pres(G), G)| by the lifting engine on the power-conjugate
    # presentation; |Hom(pres(G), G)| = |End G| checks the presentation
    t0 = time.time()
    for spec, want in [("D(8)", 8), ("Q(8)", 24), ("D(12)", 12), ("A(4)", 24),
                       ("S(4)", 24)]:
        assert aut_order(tower(spec).group) == want, spec
    for spec in CATALOG_SPECS:
        tw = tower(spec)
        P = tw.presentation()
        assert len(tw.group.closure(tw.level_gens(len(tw.layers)))) == tw.order, spec
        assert aut_order_by_lifting(tw) == aut_order(tw.group), spec
        if tw.order <= 24:
            ends = len(homomorphism_rows(tw.group, tw.group))
            assert hom_count(P, tw) == ends, spec
    report(9, "automorphism orders by search and by lifting; |End| on order <= 24", t0)


_MATRIX_SOURCES = [
    "free(2)", "bs(1,3)", "bs(2,4)", "bs(2,6)", "klein",
    "braid(3)", "braid(4)", "parafree(1,3)", "parafree(2,4)",
]
_MATRIX_TARGETS = [
    "Z(2)", "Z(3)", "Z(4)", "Z(2)^2", "Z(6)", "S(3)", "Z(8)", "D(8)", "Q(8)",
    "D(10)", "Z(12)", "D(12)", "Dstar(12)", "A(4)", "D(16)", "Q(16)",
    "M(5,4,2)", "D(24)", "Dstar(24)", "S(4)", "Z(3)*D(8)",
]
_LIFT_SOURCES = ["free(2)", "bs(1,3)", "bs(2,4)", "klein", "surface(2)", "braid(3)"]
_LIFT_TARGETS = ["D(8)", "Q(8)", "D(12)", "S(4)"]


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    for src in _MATRIX_SOURCES:
        P = builtin_from_string(src)
        assert P.n <= 3
        for tgt in _MATRIX_TARGETS:
            tw = tower(tgt)
            assert len(tw.group) <= 24
            bh = brute_hom(P, tw.group)
            be = brute_epi(P, tw.group)
            assert bh.verified and be.verified
            assert bh.count == hom_count(P, tw), (src, tgt)
            assert be.count == epi_count(P, tw, with_aut=False).epi, (src, tgt)
    for src in _LIFT_SOURCES:
        P = builtin_from_string(src)
        for tgt in _LIFT_TARGETS:
            tw = tower(tgt)
            for lay in tw.layers:
                accepted = lifts_by_base_map(P, lay)
                homs = brute_hom_images(P, lay.base)
                assert set(accepted) <= set(homs), (src, tgt)
                for images in homs:
                    sysm = build_system(P, images, lay, check=False)
                    res = solve_system(sysm)
                    sols = (
                        set(solution_vectors(sysm, result=res))
                        if res.solvable
                        else set()
                    )
                    assert sols == accepted.get(images, set()), (src, tgt)
    report(10, "engine = brute-force oracle on the full matrix", t0)


def test_criterion_11_subgroup_count_dual_path():
    t0 = time.time()
    for label in ["free(2)", "braid(3)", "braid(4)", "klein", "surface(2)"]:
        P = builtin_from_string(label)
        assert low_index_via_deltas(P) == tuple(ak_sequence(P, 4).ak[1:4]), label
    F2 = builtin_presentation("free", 2)
    assert ak_normal(F2, 4) == 7
    for label in ["free(2)", "bs(1,3)", "klein", "braid(3)", "hillman_link"]:
        P = builtin_from_string(label)
        for spec in ["S(3)", "D(8)", "Q(8)", "A(4)", "S(4)"]:
            rep = epi_count(P, tower(spec))
            assert rep.delta * rep.aut == rep.epi
    report(11, "dual-path subgroup counts and delta integrality", t0)
