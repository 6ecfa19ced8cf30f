import random

import pytest
from reference import TwistedAction, evaluate_ring_element, torsion_order

from solvquot import presentations
from solvquot.presentations import (
    AbelianInvariants,
    FreeGroupRingElement,
    ParseError,
    PresentationError,
    Presentation,
    abelian_invariants,
    abelianized_jacobian,
    builtin_presentation,
    exponent_sum,
    fox_derivative,
    free_reduce,
    parse_presentation,
    smith_normal_form,
    symbolic_jacobian,
    word_inverse,
    word_mul,
    word_pow,
)
from solvquot.subgrowth import ak_normal


def w(*letters):
    return tuple(letters)


def test_free_reduce_examples():
    # x y y^-1 x -> x x
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == w((0, 1), (0, 1))
    assert free_reduce([]) == ()
    assert free_reduce([(0, -1), (0, 1)]) == ()


def test_free_reduce_properties():
    rng = random.Random(1)
    for _ in range(300):
        a = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        b = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        c = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        ra, rb, rc = free_reduce(a), free_reduce(b), free_reduce(c)
        assert free_reduce(ra) == ra  # idempotent
        assert word_mul(word_mul(ra, rb), rc) == word_mul(ra, word_mul(rb, rc))
        assert word_mul(ra, ()) == ra == word_mul((), ra)
        assert word_mul(ra, word_inverse(ra)) == ()
        # powers are built from the cyclically reduced core, not letter by letter
        for k in range(-3, 4):
            assert word_pow(a, k) == free_reduce((a if k > 0 else word_inverse(a)) * abs(k))
        # no adjacent cancelling pair survives
        for (g1, e1), (g2, e2) in zip(ra, ra[1:]):
            assert not (g1 == g2 and e1 == -e2)


def test_parse_examples():
    P = parse_presentation("< x, y | x y^3 x^-1 y^-2 >")
    assert P.generators == ("x", "y")
    assert len(P.relators) == 1 and len(P.relators[0]) == 7

    P = parse_presentation("< x, y | [x, y] >")
    assert P.relators[0] == w((0, -1), (1, -1), (0, 1), (1, 1))

    P = parse_presentation("< a, b | a^4, b^2, (b a)^2 >")
    assert [len(r) for r in P.relators] == [4, 2, 4]

    # conjugation, zero exponents, comments, separators
    P = parse_presentation("# comment line\n< x, y | x^(y), y^0; x y >")
    assert P.relators[0] == w((1, -1), (0, 1), (1, 1))
    assert len(P.relators) == 2  # y^0 reduced away


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("< x, y | x z >")  # undeclared generator
    with pytest.raises(ParseError):
        parse_presentation("< x y | x >")  # missing comma
    with pytest.raises(ParseError):
        parse_presentation("< x | x ")  # unterminated
    with pytest.raises(ParseError):
        parse_presentation("< x | x > junk")
    err = None
    try:
        parse_presentation("< x | x ? >")
    except ParseError as exc:
        err = exc
    assert err is not None and err.pos == 8


def test_roundtrip():
    for label in [
        "free(2)", "free(4)", "bs(2,4)", "bs(1,-3)", "parafree(2,3)", "klein",
        "surface(2)", "nonorientable(3)", "braid(3)", "braid(6)",
        "braid3_split", "braid4_split", "hillman_link",
    ]:
        from solvquot.presentations import builtin_from_string

        P = builtin_from_string(label)
        assert parse_presentation(str(P)) == P
    rng = random.Random(3)
    for _ in range(50):
        rels = []
        for _ in range(rng.randrange(1, 4)):
            rels.append(free_reduce(
                [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(1, 15))]
            ))
        P = Presentation(("x", "y", "z"), tuple(rels))
        assert parse_presentation(str(P)) == P


def test_builtin_shapes():
    B3 = builtin_presentation("braid", 3)
    assert B3.n == 2 and len(B3.relators) == 1 and len(B3.relators[0]) == 7
    B4 = builtin_presentation("braid", 4)
    assert len(B4.relators) == 2
    B6 = builtin_presentation("braid", 6)
    assert len(B6.relators) == 3  # i = 2, 3
    # the one-relator parafree family: 5 + 2m + 2n letters
    pf = builtin_presentation("parafree", 1, 1)
    assert pf.n == 3 and len(pf.relators) == 1 and len(pf.relators[0]) == 9
    hl = builtin_presentation("hillman_link")
    assert hl.n == 4 and len(hl.relators) == 3
    with pytest.raises(PresentationError):
        builtin_presentation("bs", 3, 2)
    with pytest.raises(PresentationError):
        builtin_presentation("nosuch")


def test_fox_derivative_basics():
    # d(x_i)/d(x_j) = delta_ij
    assert fox_derivative(w((0, 1)), 0) == FreeGroupRingElement.one()
    assert fox_derivative(w((0, 1)), 1) == FreeGroupRingElement.zero()
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(w((0, -1)), 0) == FreeGroupRingElement.from_word(w((0, -1)), -1)
    # d(xy)/dx = 1
    assert fox_derivative(w((0, 1), (1, 1)), 0) == FreeGroupRingElement.one()
    # product rule on random pairs
    rng = random.Random(5)
    for _ in range(200):
        u = free_reduce([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        v = free_reduce([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        for j in (0, 1):
            lhs = fox_derivative(word_mul(u, v), j)
            rhs = fox_derivative(u, j) + FreeGroupRingElement.from_word(u) * fox_derivative(v, j)
            assert lhs == rhs


def test_fox_derivative_bs():
    # d(x y^m x^-1 y^-n)/dx = 1 - x y^m x^-1
    for m, n in [(2, 4), (1, 3), (3, 5)]:
        P = builtin_presentation("bs", m, n)
        d = fox_derivative(P.relators[0], 0)
        expect = FreeGroupRingElement.one() - FreeGroupRingElement.from_word(
            word_mul(w((0, 1)), word_pow(w((1, 1)), m), w((0, -1)))
        )
        assert d == expect


def test_fox_fundamental_identity():
    # sum_j d(w)/dx_j (x_j - 1) = w - 1
    rng = random.Random(11)
    for _ in range(150):
        word = free_reduce(
            [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(31))]
        )
        total = FreeGroupRingElement.zero()
        for j in range(3):
            xj = FreeGroupRingElement.from_word(w((j, 1))) - FreeGroupRingElement.one()
            total = total + fox_derivative(word, j) * xj
        expect = FreeGroupRingElement.from_word(word) - FreeGroupRingElement.one()
        assert total == expect


def test_augmentation_is_exponent_sum():
    rng = random.Random(13)
    for _ in range(200):
        word = free_reduce(
            [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(20))]
        )
        for j in range(3):
            assert fox_derivative(word, j).augmentation() == exponent_sum(word, j)


def test_symbolic_jacobian():
    free2 = builtin_presentation("free", 2)
    assert symbolic_jacobian(free2) == ()
    klein = builtin_presentation("klein")
    jac = symbolic_jacobian(klein)
    assert len(jac) == 1 and len(jac[0]) == 2
    assert jac[0][0].augmentation() == 2  # x-entry of y x y^-1 x
    assert jac[0][1].augmentation() == 0


def test_parafree_jacobian_matches_displayed_entries():
    # under any relator-killing evaluation the free-ring derivatives equal
    # the textbook entries 1 + x z^m - y z^n y^-1 z^-n and y z^n y^-1 - 1
    m, n = 2, 3
    P = builtin_presentation("parafree", m, n)
    jac = symbolic_jacobian(P)
    x = FreeGroupRingElement.from_word
    one = FreeGroupRingElement.one()
    comm = word_mul(w((1, 1)), word_pow(w((2, 1)), n), w((1, -1)), word_pow(w((2, 1)), -n))
    expect_dx = one + x(word_mul(w((0, 1)), word_pow(w((2, 1)), m))) - x(comm)
    expect_dy = x(word_mul(w((1, 1)), word_pow(w((2, 1)), n), w((1, -1)))) - one
    # abelianization sends x -> 1, y -> t1, z -> t2: evaluate over Z_5 x Z_7
    rng = random.Random(17)
    for _ in range(20):
        mats = [[[1]], [[rng.choice([1, 2, 3, 4])]], [[rng.choice([1, 2, 3, 4])]]]
        act = TwistedAction([35], mats)
        for col, expect in [(0, expect_dx), (1, expect_dy)]:
            got = evaluate_ring_element(jac[0][col], act)
            want = evaluate_ring_element(expect, act)
            assert got == want


def test_smith_normal_form():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([]) == []
    diag = smith_normal_form([[4, 0, 0], [0, 6, 0]], ncols=3)
    assert diag == [2, 12]
    # divisibility chain on random matrices
    rng = random.Random(19)
    for _ in range(100):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        d = smith_normal_form(A, ncols=n)
        for a, b in zip(d, d[1:]):
            assert b % a == 0


def test_abelian_invariants():
    assert abelian_invariants(builtin_presentation("free", 2)) == AbelianInvariants(2, ())
    assert abelian_invariants(builtin_presentation("surface", 2)).rank == 4
    inv = abelian_invariants(builtin_presentation("bs", 2, 4))
    assert inv.rank == 1 and inv.torsion == ((2, (1,)),)
    # torsion |n - m| for the whole grid, rank 2 when m = n
    for m in range(1, 7):
        for n in range(m, 7):
            inv = abelian_invariants(builtin_presentation("bs", m, n))
            if m == n:
                assert inv.rank == 2 and inv.torsion == ()
            else:
                assert inv.rank == 1 and torsion_order(inv) == n - m


def test_abelian_invariants_are_kept_on_the_presentation(monkeypatch):
    # two calls return the same frozen object, and the normal a_k of every
    # k share one Smith normal form
    calls = []
    real = presentations.smith_normal_form
    monkeypatch.setattr(presentations, "smith_normal_form",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    P = builtin_presentation("bs", 2, 6)
    inv = abelian_invariants(P)
    assert abelian_invariants(P) is inv and P.abelian_invariants is inv
    assert [ak_normal(P, k) for k in range(1, 7)] == [1, 3, 1, 7, 1, 5]
    assert len(calls) == 1


def test_abelianized_jacobian_rows():
    P = builtin_presentation("bs", 2, 6)
    assert abelianized_jacobian(P) == [[0, -4]]


def test_hom_exponent_truncation():
    inv = abelian_invariants(builtin_presentation("bs", 1, 5))  # Z + Z_4
    assert inv.torsion == ((2, (0, 1)),)
    assert inv.hom_exponent(2, 1) == 1
    assert inv.hom_exponent(2, 2) == 2
    assert inv.hom_exponent(2, 3) == 2
