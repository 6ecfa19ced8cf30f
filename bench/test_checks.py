"""Tests of the benchmark's independent checkers: each formula reproduces a
value checked by hand or by a second formula, and each checker rejects a
count perturbed by one.

    python3 -m pytest -q bench/test_checks.py
"""

import math

import pytest

import checks
from checks import CheckFailed, Table


def dihedral(order):
    """D(order) on r^i s^j, encoded i + m j: (i, j)(k, l) = (i + (-1)^j k, j + l)."""
    m = order // 2
    rows = []
    for a in range(order):
        i, j = a % m, a // m
        rows.append([((i + (k if j == 0 else -k)) % m) + m * ((j + l) % 2)
                     for l in range(2) for k in range(m)])
    return Table(rows)


S3 = Table(checks.symmetric_rows(3))
S4 = Table(checks.symmetric_rows(4))
SURFACE2 = [[(0, -1), (1, -1), (0, 1), (1, 1), (2, -1), (3, -1), (2, 1), (3, 1)]]


def test_symmetric_and_dihedral_tables_are_groups():
    for t in (S3, S4, dihedral(8), dihedral(24)):
        mul = t.mul
        assert all(sorted(row) == list(range(t.n)) for row in mul.tolist())
        # (xy)z = x(yz): mul[mul][x, y, z] = mul[mul[x, y], z]
        assert (mul[mul] == mul[:, mul]).all()


def test_subgroup_lattices():
    assert len(S4.subgroups()) == 30
    # D(2m) has tau(m) + sigma(m) subgroups
    assert len(dihedral(24).subgroups()) == 6 + 28
    assert len(dihedral(8).subgroups()) == 3 + 7


def test_hom_surface_hand_values():
    assert checks.hom_surface2(S4) == 34176
    assert checks.hom_surface2(dihedral(48)) == 746496
    # two routes agree: commutator counting and brute force over S_3^4
    assert checks.hom_surface2(S3) == checks.hom_brute(SURFACE2, 4, S3) == 486


def test_hom_surface_symmetric_hook_formula():
    assert [checks.hook_dimension(p) for p in checks.partitions(4)] == [1, 3, 2, 3, 1]
    assert checks.hom_surface_symmetric(2, 2) == 16
    assert checks.hom_surface_symmetric(2, 3) == checks.hom_surface2(S3)
    assert checks.hom_surface_symmetric(2, 4) == 34176


def test_epi_moebius_hand_values():
    # generating pairs: 18 of S_3, 216 of S_4 (probability 3/8)
    assert checks.epi_moebius(S3, lambda m: checks.hom_free(bin(m).count("1"), 2)) == 18
    assert checks.epi_moebius(S4, lambda m: checks.hom_free(bin(m).count("1"), 2)) == 216
    # Sigma_2 onto Z_2: every non-trivial map of 2^4
    z2 = Table(checks.cyclic_rows(2))
    assert checks.epi_moebius(z2, lambda m: checks.hom_surface2(z2, m)) == 15


def test_aut_order_hand_values():
    z2cubed = Table([[a ^ b for b in range(8)] for a in range(8)])
    assert checks.aut_order(z2cubed) == 168  # |GL(3, 2)|
    assert checks.aut_order(S4) == 24
    assert checks.aut_order(dihedral(8)) == 8
    assert checks.aut_order(dihedral(48)) == 192  # |Z_24 x| Z_24^*| = 24 * 8


def test_subgroup_counts_free_group():
    hk = [math.factorial(k) ** 2 for k in range(1, 6)]
    assert checks.subgroup_counts(hk) == [1, 3, 13, 71, 461]


def test_checkers_accept_right_and_reject_off_by_one():
    checks.check_hom("x", 34176, checks.hom_surface2(S4))
    with pytest.raises(CheckFailed):
        checks.check_hom("x", 34177, checks.hom_surface2(S4))

    free2 = lambda m: checks.hom_free(bin(m).count("1"), 2)
    checks.check_epi("x", 216, S4, free2)
    for bad in (215, 217):
        with pytest.raises(CheckFailed):
            checks.check_epi("x", bad, S4, free2)

    checks.check_epi_report("x", 216, 24, 9, 24, hom=576)
    for epi, aut, delta, hom in ((217, 24, 9, 576), (216, 25, 9, 576), (216, 24, 10, 576),
                                 (216, 24, 9, 215)):
        with pytest.raises(CheckFailed):
            checks.check_epi_report("x", epi, aut, delta, 24, hom)

    hk = [math.factorial(k) ** 2 for k in range(1, 5)]
    ak = [1, 3, 13, 71]
    checks.check_growth("x", hk, ak, hk)
    with pytest.raises(CheckFailed):
        checks.check_growth("x", hk, [1, 3, 14, 71], hk)
    with pytest.raises(CheckFailed):
        checks.check_growth("x", [1, 5, 36, 576], ak, hk)

    checks.check_normal("x", [1, 3, 13], [1, 3, 4])
    for bad in ([1, 4, 4], [1, 3, 14]):
        with pytest.raises(CheckFailed):
            checks.check_normal("x", [1, 3, 13], bad)
