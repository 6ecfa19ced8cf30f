import itertools
import random

import numpy as np
import pytest

from reference import (
    CocycleSystem,
    LayerAction,
    TwistedAction,
    _d8_center_layer,
    _dihedral_layer,
    _elementary_table,
    _q8_center_layer,
    _s4_top_layer,
    build_system,
    enumerate_epis_to_table,
    epi_maps,
    epsilon_and_witness,
    evaluate_ring_element,
    fixed_subspace_dim,
    h1_dim,
    homogeneous_by_indices,
    homogeneous_count,
    solution_vectors,
    solve_mod_prime_power,
    solve_system,
    twisted_z1_count,
)

from solvquot import cohomology, counting
from solvquot.cohomology import build_systems, eliminate, solution_arrays, solve_systems
from solvquot.groups import CATALOG_SPECS, builtin_group, eval_word_in_table
from solvquot.presentations import (
    FreeGroupRingElement,
    builtin_from_string,
    builtin_presentation,
    parse_presentation,
    symbolic_jacobian,
)


def test_solver_against_enumeration(monkeypatch):
    # the per-map solver enumerates its solutions on its own: with the
    # batched expansion refused, solutions, solution_array and
    # solution_vectors give the brute-force solution set over Z_q and over
    # Z_4, Z_8, Z_9 and Z_25
    def refuse(batch):
        raise AssertionError("the per-map solver expanded through the batched path")

    monkeypatch.setattr(cohomology, "solution_arrays", refuse)
    rng = random.Random(7)
    for _ in range(300):
        q, r = rng.choice([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
        M = q**r
        s, n_gens = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3)])
        nr, nc = rng.randrange(0, 4), s * n_gens
        A = [[rng.randrange(M) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5:  # b in the image of A, so the system is solvable
            x = [rng.randrange(M) for _ in range(nc)]
            b = [sum(a * xx for a, xx in zip(row, x)) % M for row in A]
        else:
            b = [rng.randrange(M) for _ in range(nr)]
        res = solve_mod_prime_power(A, b, nc, q, r)
        sols = list(res.solutions())
        brute = {
            x
            for x in itertools.product(range(M), repeat=nc)
            if all(sum(A[i][j] * x[j] for j in range(nc)) % M == b[i] for i in range(nr))
        }
        assert set(sols) == brute and len(sols) == len(brute), (q, r, A, b)
        assert res.solution_array().tolist() == [list(x) for x in sols]
        sysm = CocycleSystem(q, s, n_gens, nr, A, [(-x) % M for x in b])
        want = {tuple(x[i * s : (i + 1) * s] for i in range(n_gens)) for x in brute}
        assert set(solution_vectors(sysm, result=res)) == want
        if r == 1:
            assert set(solution_vectors(sysm)) == want
        hom = solve_mod_prime_power(A, None, nc, q, r)
        hcount = sum(
            1
            for x in itertools.product(range(M), repeat=nc)
            if all(sum(A[i][j] * x[j] for j in range(nc)) % M == 0 for i in range(nr))
        )
        assert q**hom.count_exponent == hcount


def test_solver_examples():
    # empty system over Z_3^s in n unknowns: 3^(n*s) solutions
    res = solve_mod_prime_power([], None, 4, 3, 1)
    assert res.count_exponent == 4
    # 2a = 0 over Z_4 has two solutions
    res = solve_mod_prime_power([[2]], None, 1, 2, 2)
    assert res.count_exponent == 1
    assert set(res.solutions()) == {(0,), (2,)}


def test_evaluate_ring_element():
    act = TwistedAction([3], [[[2]], [[2]]])
    assert evaluate_ring_element(FreeGroupRingElement.one(), act) == {3: ((1,),)}
    trivial = TwistedAction([5], [[[1]], [[1]]])
    xm1 = FreeGroupRingElement.from_word(((0, 1),)) - FreeGroupRingElement.one()
    assert evaluate_ring_element(xm1, trivial) == {5: ((0,),)}
    # 1 - x y^2 x^-1 with x, y acting by -1 mod 3 evaluates to zero
    word = ((0, 1), (1, 1), (1, 1), (0, -1))
    elem = FreeGroupRingElement.one() - FreeGroupRingElement.from_word(word)
    assert evaluate_ring_element(elem, act) == {3: ((0,),)}
    with pytest.raises(ValueError):
        TwistedAction([4], [[[2]]])  # 2 is not invertible mod 4
    # twisted_z1_count solves each prime over one Z_{q^r}, so a prime part
    # that mixes exponents, as Z_2 + Z_4 does, is refused
    with pytest.raises(ValueError, match="not homocyclic"):
        TwistedAction([2, 4], [[[1, 0], [0, 1]]])


def test_twisted_z1_multiplicative():
    P = builtin_presentation("bs", 1, 3)
    act6 = TwistedAction([6], [[[5]], [[5]]])
    act2 = TwistedAction([2], [[[1]], [[1]]])
    act3 = TwistedAction([3], [[[2]], [[2]]])
    assert twisted_z1_count(P, act6) == twisted_z1_count(P, act2) * twisted_z1_count(P, act3)
    act12 = TwistedAction([12], [[[5]], [[7]]])
    act4 = TwistedAction([4], [[[1]], [[3]]])
    act3b = TwistedAction([3], [[[2]], [[1]]])
    assert twisted_z1_count(P, act12) == twisted_z1_count(P, act4) * twisted_z1_count(P, act3b)


def test_twisted_z1_count_against_brute_force():
    # (a_g) is a cocycle iff every relator maps to a pure unit in the
    # semidirect product Z_m x| Z_m^*, (v, u)(w, t) = (v + u w, u t), where
    # x_g goes to (a_g, u_g) and its inverse to (-u_g^-1 a_g, u_g^-1)
    def brute(P, m, units):
        total = 0
        for a in itertools.product(range(m), repeat=P.n):
            ok = True
            for rel in P.relators:
                v, u = 0, 1
                for g, e in rel:
                    t = units[g] if e == 1 else pow(units[g], -1, m)
                    v, u = (v + u * (a[g] if e == 1 else -t * a[g])) % m, u * t % m
                ok = ok and v == 0
            total += ok
        return total

    for label in ["bs(1,3)", "klein", "braid(3)"]:
        P = builtin_from_string(label)
        for m, units in [(4, (1, 3)), (6, (5, 5)), (12, (5, 7))]:
            act = TwistedAction([m], [[[u]] for u in units])
            assert twisted_z1_count(P, act) == brute(P, m, units), (label, m)


def test_build_system_matches_symbolic_jacobian():
    # the one-walk matrix equals sum c sigma(rho(w)) mod q over the terms of
    # the symbolic Fox Jacobian, entry by entry, on every layer of every
    # catalog tower of order <= 48, for seeded images (homomorphisms or not)
    rng = random.Random(23)
    sources = ["free(2)", "surface(2)", "klein", "bs(2,6)", "braid(4)",
               "parafree(3,2)", "hillman_link"]
    towers = [t for t in map(builtin_group, CATALOG_SPECS) if t.order <= 48]
    for label in sources:
        P = builtin_from_string(label)
        jac = symbolic_jacobian(P)
        for tower in towers:
            for lay in tower.layers:
                q, s = lay.q, lay.s
                for _ in range(3):
                    images = tuple(rng.randrange(len(lay.base)) for _ in range(P.n))
                    got = build_system(P, images, lay, check=False).matrix
                    assert len(got) == len(P.relators) * s
                    for k in range(len(P.relators)):
                        for i in range(P.n):
                            want = [[0] * s for _ in range(s)]
                            for w, c in jac[k][i].terms.items():
                                x = eval_word_in_table(lay.base, images, w)
                                for a in range(s):
                                    for b in range(s):
                                        want[a][b] += c * lay.sigma[x][a][b]
                            for a in range(s):
                                assert got[k * s + a][i * s : (i + 1) * s] == [
                                    v % q for v in want[a]
                                ], (label, tower.spec, images, k, i)


def _assert_places(sol, sols):
    # SolutionBatch.place of every solution row of every solvable system is
    # its index within that system's block of solution_arrays; returns the
    # number of distinct free patterns among those systems
    ok = np.flatnonzero(sol.solvable)
    start = 0
    for j in ok.tolist():
        count = sol.q ** int(sol.dims[j])
        X = np.zeros((count,) + sol.x0.shape, dtype=np.int64)
        X[:, j] = sols[start : start + count]
        assert sol.place(X)[:, j].tolist() == list(range(count))
        start += count
    assert start == len(sols)
    return len(np.unique(sol.elim.free[sol.which[ok]], axis=0))


def _assert_grouped(A, sol):
    # the batch's matrix index puts two systems together exactly where
    # their matrices are equal, and its elimination holds each distinct
    # matrix once; returns their number
    _, inv = np.unique(A.reshape(len(A), A.shape[1] * A.shape[2]), axis=0, return_inverse=True)
    pairs = set(zip(inv.ravel().tolist(), sol.which.tolist()))
    assert len(pairs) == len(set(inv.ravel().tolist())) == len(set(sol.which.tolist()))
    assert len(sol.elim.T) == len(pairs)
    return len(pairs)


def _assert_batch_matches_reference(P, rows, lay):
    # build_systems, solve_systems and solution_arrays on a batch of image
    # rows against build_system and solve_mod_prime_power map by map:
    # matrix, rhs, solvability, d and the solution set of every map, the
    # place of every solution and the grouping by matrix; returns the
    # number of free patterns and of distinct matrices
    q, s = lay.q, lay.s
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, P.n)
    A, chi = build_systems(P, rows, lay)
    assert A.shape == (len(rows), len(P.relators) * s, P.n * s)
    assert chi.shape == (len(rows), len(P.relators) * s)
    sol = solve_systems(A, -chi, q)
    sols = solution_arrays(sol)
    patterns = _assert_places(sol, sols)
    sols = sols.tolist()
    start = 0
    for j, images in enumerate(rows.tolist()):
        sysm = build_system(P, images, lay, check=False)
        res = solve_system(sysm)
        assert A[j].tolist() == sysm.matrix and chi[j].tolist() == sysm.chi_vec, images
        assert (bool(sol.solvable[j]), int(sol.dims[j])) == (res.solvable, res.count_exponent)
        want = sorted(map(tuple, res.solution_array().tolist()))
        assert sorted(map(tuple, sols[start : start + len(want)])) == want, images
        start += len(want)
    assert start == len(sols)
    return patterns, _assert_grouped(A, sol)


def test_batched_systems_match_the_per_map_reference():
    # every layer of every catalog tower of order <= 48, seven sources (one
    # without relators), the trivial map and seeded random rows, most of
    # them not homomorphisms, in one batch per layer
    rng = random.Random(31)
    sources = ["free(3)", "surface(2)", "klein", "bs(2,6)", "braid(4)",
               "parafree(3,2)", "hillman_link"]
    towers = [t for t in map(builtin_group, CATALOG_SPECS) if t.order <= 48]
    mixed = 0  # batches whose solvable systems have different free unknowns
    for label in sources:
        P = builtin_from_string(label)
        for tower in towers:
            for lay in tower.layers:
                rows = [[0] * P.n] + [[rng.randrange(len(lay.base)) for _ in range(P.n)]
                                      for _ in range(5)]
                mixed += _assert_batch_matches_reference(P, rows, lay)[0] > 1
    assert mixed >= 60


def test_batched_systems_edge_cases():
    S4 = builtin_group("S(4)")
    P = builtin_from_string("surface(2)")
    for lay in S4.layers:
        # m = 0 and m = 1
        _assert_batch_matches_reference(P, [], lay)
        _assert_batch_matches_reference(P, [[x % len(lay.base) for x in (1, 0, 3, 2)]], lay)
    # a 2002-letter relator, onto Z(2) and through every layer of S(4)
    long = parse_presentation("< x, y | x^2000 y^2 >")
    rng = random.Random(5)
    for lay in builtin_group("Z(2)").layers + S4.layers:
        rows = [[rng.randrange(len(lay.base)) for _ in range(2)] for _ in range(4)]
        _assert_batch_matches_reference(long, rows, lay)
    # the hand-built layers of the one-layer evaluations, with and
    # without cocycle, on every image row
    for lay in [_d8_center_layer(), _q8_center_layer(), _s4_top_layer(), _dihedral_layer(5, 3)]:
        for label in ["bs(1,3)", "braid(3)"]:
            Q = builtin_from_string(label)
            rows = list(itertools.product(range(len(lay.base)), repeat=Q.n))
            _assert_batch_matches_reference(Q, rows, lay)


def _assert_solver_matches_reference(A, b, q):
    # solve_systems and solution_arrays against solve_mod_prime_power map by
    # map, the place of every solution and the grouping by matrix; returns
    # the number of free patterns and of distinct matrices
    sol = solve_systems(A, b, q)
    sols = solution_arrays(sol)
    patterns = _assert_places(sol, sols)
    sols = sols.tolist()
    start = 0
    for j in range(len(A)):
        res = solve_mod_prime_power(A[j].tolist(), b[j].tolist(), A.shape[2], q)
        assert (bool(sol.solvable[j]), int(sol.dims[j])) == (
            res.solvable, res.count_exponent), (q, A[j], b[j])
        want = sorted(map(tuple, res.solution_array().tolist()))
        assert sorted(map(tuple, sols[start : start + len(want)])) == want
        start += len(want)
    assert start == len(sols)
    return patterns, _assert_grouped(A, sol)


def test_batched_systems_on_frontiers_that_share_matrices():
    # real frontiers, whose maps share few matrices: the 210 level-2
    # representatives of Epi(surface(2), Z(2)*S(4)), and a seeded 300 of
    # the 1756 top representatives of Hom(surface(2), D(48))
    P = builtin_from_string("surface(2)")
    gen = np.random.default_rng(5)
    for spec, epi, level, size in [("Z(2)*S(4)", True, 2, 210), ("D(48)", False, 4, 1756)]:
        tower = builtin_group(spec)
        assert level == len(tower.layers) - 1 or epi
        reps = next(r for i, r, *_ in counting._orbit_levels(P, tower, epi) if i == level)
        assert len(reps) == size
        rows = reps[np.sort(gen.choice(size, min(size, 300), replace=False))]
        _, distinct = _assert_batch_matches_reference(P, rows, tower.layers[level])
        assert distinct < len(rows) // 10, (spec, distinct)


def test_batched_solver_against_the_per_map_solver():
    # random systems mod a prime, eliminated together
    rng = random.Random(11)
    mixed = 0  # batches whose solvable systems have different free unknowns
    for q in [2, 3, 5, 7]:
        for R, C in [(0, 2), (1, 1), (2, 4), (4, 2), (3, 3), (5, 5)]:
            A = np.array([[[rng.randrange(q) * (rng.random() < 0.7) for _ in range(C)]
                           for _ in range(R)] for _ in range(40)], dtype=np.int64).reshape(40, R, C)
            A[:10, 1:] = A[:10, :1]  # repeated rows, consistent or not
            b = np.array([[rng.randrange(q) for _ in range(R)] for _ in range(40)],
                         dtype=np.int64).reshape(40, R)
            mixed += _assert_solver_matches_reference(A, b, q)[0] > 1
    assert mixed >= 12
    # m systems drawn from k << m matrices in shuffled order, each matrix
    # eliminated once; m = 0 and m = 1; R = 0; and 64 entries mod 7, past
    # one packed key, in matrices that differ only in their last entry
    gen = np.random.default_rng(11)
    assert len(cohomology._key_chunks(7, 64)) > 1
    for q, R, C, m, k in [(2, 2, 4, 60, 3), (3, 3, 3, 80, 6), (5, 4, 2, 50, 2), (7, 8, 8, 60, 5),
                          (7, 8, 8, 30, 1), (3, 0, 3, 20, 1), (3, 2, 2, 0, 0), (5, 3, 4, 1, 1)]:
        distinct = gen.integers(0, q, (k, R, C)) * (gen.random((k, R, C)) < 0.5)
        if R == 8:
            distinct[:] = distinct[:1]
            distinct[:, -1, -1] = np.arange(k)
        A = distinct[gen.permutation(np.arange(m) % max(k, 1))]
        x = gen.integers(0, q, (m, C))
        b = np.where(gen.random((m, 1)) < 0.5, np.einsum("mrc,mc->mr", A, x) % q,
                     gen.integers(0, q, (m, R)))
        want = len(np.unique(distinct.reshape(k, R * C), axis=0)) if m else 0
        got = _assert_solver_matches_reference(A, b, q)[1]
        assert got == want and (m < 2 or got < m), (q, R, C, m, k)


def test_homogeneous_grid_against_np_indices():
    # Elimination.homogeneous reads its grid off the cached digit vectors;
    # row for row it is the np.indices expansion (first free unknown
    # slowest), the order SolutionBatch.place inverts, for every d <= 4
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        A = rng.integers(q, size=(60, 4, 4))
        A[rng.random((60, 4)) < 0.4] = 0  # zero rows, so that d takes every value
        A[:2] = [np.eye(4, dtype=np.int64), np.zeros((4, 4), dtype=np.int64)]  # d = 0 and 4
        elim = eliminate(A, q)
        assert set(elim.dims.tolist()) == {0, 1, 2, 3, 4}, q
        for g in range(len(A)):
            grid = elim.homogeneous(g)
            assert np.array_equal(grid, homogeneous_by_indices(elim, g)), (q, g)
            assert not ((A[g] @ grid.T) % q).any(), (q, g)


def test_free_source_system_is_empty():
    F3 = builtin_presentation("free", 3)
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]
    sys = build_system(F3, (0, 1, 2), lay, check=True)
    assert sys.matrix == [] and sys.chi_vec == []
    eps, wit = epsilon_and_witness(sys)
    assert eps == 1 and wit == ((0, 0), (0, 0), (0, 0))
    assert homogeneous_count(sys) == 6


def test_zero_cocycle_gives_zero_rhs():
    P = builtin_presentation("klein")
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]  # split layer, chi identically zero
    for images in enumerate_epis_to_table(P, lay.base):
        sys = build_system(P, images, lay)
        assert all(v == 0 for v in sys.chi_vec)
        eps, wit = epsilon_and_witness(sys)
        assert eps == 1 and all(v == 0 for vec in wit for v in vec)


def test_klein_twisted_jacobian_kills_h1():
    # every epimorphism of the Klein bottle group onto S_3 has a rank-2
    # twisted derivative matrix over Z_2^2, so H^1 vanishes
    P = builtin_presentation("klein")
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]
    epis = enumerate_epis_to_table(P, lay.base)
    assert len(epis) == 6
    for images in epis:
        sys = build_system(P, images, lay)
        d = homogeneous_count(sys)
        assert d == 2
        assert h1_dim(P, images, lay, d=d) == 0


def test_epsilon_tables_for_central_extensions():
    d8lay = _d8_center_layer()
    q8lay = _q8_center_layer()
    for m in range(1, 9):
        for n in range(m, 9):
            P = builtin_presentation("bs", m, n)
            epis = enumerate_epis_to_table(P, d8lay.base)
            if (n - m) % 2:
                assert epis == []
                continue
            assert len(epis) == 6
            cnt8 = sum(
                1 for im in epis
                if solve_system(build_system(P, im, d8lay, check=False)).solvable
            )
            want = {(0, 0): 6, (0, 1): 4, (1, 1): 2, (1, 0): 0}[
                (m % 2, ((n - m) // 2) % 2)
            ]
            assert cnt8 == want, (m, n)
            cntq = sum(
                1 for im in epis
                if solve_system(build_system(P, im, q8lay, check=False)).solvable
            )
            assert cntq == (6 if (m + n) % 4 == 0 else 0), (m, n)


def test_h1_dims_for_s4_layer():
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]
    for n in (2, 3):
        Fn = builtin_presentation("free", n)
        betas = {h1_dim(Fn, im, lay) for im in epi_maps(Fn, tower)[1]}
        assert betas == {2 * n - 2}
    B3 = builtin_presentation("braid", 3)
    assert {h1_dim(B3, im, lay) for im in epi_maps(B3, tower)[1]} == {1}
    B4 = builtin_presentation("braid", 4)
    assert {h1_dim(B4, im, lay) for im in epi_maps(B4, tower)[1]} == {2}


def test_h1_dim_trivial_action():
    # trivial action of F_2 on Z_2: Z^1 = Hom(F_2, Z_2), no coboundaries
    F2 = builtin_presentation("free", 2)
    lay = LayerAction(2, 1, _elementary_table(2, 1), [((1,),), ((1,),)], None)
    sys = build_system(F2, (0, 0), lay)
    d = homogeneous_count(sys)
    assert d == 2 and h1_dim(F2, (0, 0), lay, d=d) == 2


def test_h1_dim_nonsurjective_uses_fixed_points():
    # rho mapping both generators to the identity of S_3 acting on Z_3:
    # the image acts trivially, so B^1 = 0 and beta = d
    P = builtin_presentation("free", 2)
    tower = builtin_group("S(3)")
    lay = tower.layers[-1]
    assert fixed_subspace_dim(lay, (0, 0)) == 1
    assert h1_dim(P, (0, 0), lay) == homogeneous_count(build_system(P, (0, 0), lay))


def test_finite_source_z1():
    # |Z^1| of a finite group from its power-conjugate presentation
    # trivial action: |Hom(B, E)|
    z4 = builtin_group("Z(4)")
    assert twisted_z1_count(z4.presentation(), TwistedAction([2], [[[1]]] * 2)) == 2
    # S_3 on Z_2^2 through the standard matrices: 4 cocycles
    s4 = builtin_group("S(4)")
    lay = s4.layers[-1]
    action = TwistedAction([2, 2], lay.sigma[s4.level_gens(2)].tolist())
    assert twisted_z1_count(s4.presentation(2), action) == 4
    # Z_2 inverting Z_3: each value on the generator extends
    z2 = builtin_group("Z(2)")
    assert twisted_z1_count(z2.presentation(), TwistedAction([3], [[[2]]])) == 3


def test_cohomology_report_factorization():
    # |B^1| = |E|^zeta for every epimorphism onto a layer's base: the
    # coboundaries are E modulo the points the image fixes
    for src in ["free(2)", "klein", "bs(1,3)", "braid(3)"]:
        P = builtin_from_string(src)
        for spec in ["S(4)", "D(8)", "D(12)", "Q(8)"]:
            tower = builtin_group(spec)
            for lay in tower.layers:
                for images in enumerate_epis_to_table(P, lay.base):
                    b1_dim = lay.s - fixed_subspace_dim(lay, images)
                    assert lay.q**b1_dim == (lay.q**lay.s) ** lay.zeta, (src, spec, images)


def test_solution_vectors_match_witness():
    P = builtin_presentation("bs", 1, 3)
    tower = builtin_group("D(12)")
    lay = tower.layers[-1]
    for images in enumerate_epis_to_table(P, lay.base):
        sys = build_system(P, images, lay)
        res = solve_system(sys)
        if not res.solvable:
            continue
        sols = list(solution_vectors(sys, result=res))
        eps, wit = epsilon_and_witness(sys)
        assert eps == 1 and wit in sols
        assert len(sols) == lay.q ** res.count_exponent
