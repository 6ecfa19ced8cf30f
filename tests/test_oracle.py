import itertools

import pytest
from reference import (
    build_system,
    kernel_number,
    kernel_vector,
    lifts_by_base_map,
    solution_vectors,
    solve_system,
)

from solvquot import oracle
from solvquot.counting import epi_count, hom_count
from solvquot.groups import builtin_group
from solvquot.oracle import (
    BruteResult,
    BudgetExceeded,
    OracleBudget,
    brute_epi,
    brute_hom,
    brute_hom_images,
    brute_lift_check,
)
from solvquot.presentations import builtin_from_string, builtin_presentation

F2 = builtin_presentation("free", 2)


def test_brute_hom_free():
    s3 = builtin_group("S(3)").group
    assert brute_hom(F2, s3).count == 36


def test_brute_epi_examples():
    d8 = builtin_group("D(8)").group
    assert brute_epi(builtin_presentation("bs", 1, 3), d8).count == 8
    s4 = builtin_group("S(4)").group
    assert brute_epi(builtin_presentation("parafree", 1, 3), s4).count == 408


def test_budget_abort_is_explicit():
    s4 = builtin_group("S(4)").group
    P = builtin_presentation("parafree", 1, 3)
    res = brute_hom(P, s4, budget=OracleBudget(max_letter_ops=10))
    assert isinstance(res, BruteResult)
    assert not res.verified and res.count is None
    with pytest.raises(BudgetExceeded, match="unverified"):
        int(res)
    full = brute_hom(P, s4)
    assert full.verified and full.letter_ops > 0 and int(full) == full.count
    res = brute_epi(P, s4, budget=OracleBudget(max_letter_ops=10))
    assert not res.verified and res.count is None
    # a relator-free source is charged for its |T|^n-sized arrays up front
    res = brute_hom(builtin_presentation("free", 3), s4, OracleBudget(max_letter_ops=1))
    assert not res.verified and res.count is None


def test_brute_lift_check_free_source():
    F3 = builtin_presentation("free", 3)
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]
    vecs = [kernel_vector(lay, e) for e in range(lay.E)]
    for cand in itertools.product(vecs, repeat=3):
        assert brute_lift_check(F3, (0, 1, 2), lay, cand)


def test_brute_lift_check_zero_cocycle_zero_values():
    P = builtin_presentation("klein")
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]  # split layer: chi = 0, the zero lift always works
    for images in brute_hom_images(P, lay.base):
        assert brute_lift_check(P, images, lay, ((0, 0), (0, 0)))


def test_klein_to_s4_lift_census():
    # over each epimorphism onto S_3, exactly 4 of the 16 candidates pass and
    # none of the accepted lifts is surjective
    P = builtin_presentation("klein")
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]
    ext = lay.group
    nB = len(lay.base)
    vecs = [kernel_vector(lay, e) for e in range(lay.E)]
    epis = [im for im in brute_hom_images(P, lay.base)
            if len(lay.base.closure(im)) == nB]
    assert len(epis) == 6
    for images in epis:
        accepted = [cand for cand in itertools.product(vecs, repeat=2)
                    if brute_lift_check(P, images, lay, cand)]
        assert len(accepted) == 4
        for cand in accepted:
            lifted = [kernel_number(lay, v) * nB + b for v, b in zip(cand, images)]
            assert len(ext.closure(lifted)) == nB  # a complement, not onto


def test_oracle_matches_engine_small():
    for label in ["bs(1,3)", "klein", "braid(3)"]:
        P = builtin_from_string(label)
        for spec in ["S(3)", "D(8)", "A(4)"]:
            tower = builtin_group(spec)
            assert brute_hom(P, tower.group).count == hom_count(P, tower)
            assert brute_epi(P, tower.group).count == epi_count(
                P, tower, with_aut=False
            ).epi


def test_hillman_link_against_oracle():
    # four generators, so the big matrix skips it; small targets still fit
    P = builtin_presentation("hillman_link")
    for spec in ["Z(6)", "S(3)", "D(8)", "A(4)"]:
        tower = builtin_group(spec)
        assert brute_hom(P, tower.group).count == hom_count(P, tower)
        assert brute_epi(P, tower.group).count == epi_count(
            P, tower, with_aut=False
        ).epi


def test_solution_sets_equal_accepted_sets():
    # the decisive sign-convention check on a small slice (the full matrix
    # runs in the acceptance suite): each map's solution set is the set of
    # lifts that the oracle's walk of the extension's table finds over it
    P = builtin_presentation("bs", 1, 3)
    for spec in ["D(12)", "Q(8)", "S(4)"]:
        tower = builtin_group(spec)
        for lay in tower.layers:
            accepted = lifts_by_base_map(P, lay)
            homs = brute_hom_images(P, lay.base)
            assert set(accepted) <= set(homs)
            for images in homs:
                sysm = build_system(P, images, lay, check=False)
                res = solve_system(sysm)
                sols = set(solution_vectors(sysm, result=res)) if res.solvable else set()
                assert sols == accepted.get(images, set())


def test_chunked_walk_counts(monkeypatch):
    # surface(2) onto S_4 walks 24^4 = 331776 tuples, more than one chunk
    P = builtin_presentation("surface", 2)
    s4 = builtin_group("S(4)")
    assert 24**4 > oracle._CHUNK
    hom, epi = brute_hom(P, s4.group), brute_epi(P, s4.group)
    assert (hom.count, epi.count) == (hom_count(P, s4), epi_count(P, s4).epi)
    # the same counts, images and charges in chunks that split the range
    # unevenly
    bs = builtin_presentation("bs", 1, 3)
    d8 = builtin_group("D(8)").group
    whole = (brute_hom(bs, d8), brute_epi(bs, d8), brute_hom_images(bs, d8))
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    assert brute_hom(bs, d8) == whole[0]
    assert brute_epi(bs, d8) == whole[1]
    assert brute_hom_images(bs, d8) == whole[2]
