import functools

import numpy as np
import pytest
from reference import (
    closed_form_delta,
    closed_form_eulerian,
    conjugation_orbit_groups,
    delta_s4,
    dihedral_prime_delta,
    enumerate_epis_to_table,
    epi_binary_dihedral_recursive,
    epi_maps,
    epi_count_q2p,
    epi_dihedral_recursive,
    table1_delta,
)

from solvquot import counting
from solvquot.cohomology import Elimination, eliminate, solution_arrays, solve_systems
from solvquot.counting import (
    CountError,
    aut_order_by_lifting,
    delta,
    epi_count,
    gaschutz_eulerian,
    hom_count,
    lift_frontier,
)
from solvquot.groups import (
    CATALOG_SPECS,
    CapExceeded,
    GroupSpecError,
    PermutationGroup,
    builtin_group,
)
from solvquot.oracle import brute_hom
from solvquot.presentations import (
    AbelianInvariants,
    builtin_from_string,
    builtin_presentation,
    parse_presentation,
)

F1 = builtin_presentation("free", 1)
F2 = builtin_presentation("free", 2)
F3 = builtin_presentation("free", 3)
B3 = builtin_presentation("braid", 3)
B4 = builtin_presentation("braid", 4)
B5 = builtin_presentation("braid", 5)
KLEIN = builtin_presentation("klein")
S3 = builtin_group("S(3)")
S4 = builtin_group("S(4)")
D8 = builtin_group("D(8)")
Q8 = builtin_group("Q(8)")


def test_free_group_counts():
    assert hom_count(F2, S3) == 36
    rep = epi_count(F2, S3)
    assert (rep.epi, rep.aut, rep.delta) == (18, 6, 3)
    rep = epi_count(F2, S4)
    assert (rep.epi, rep.aut, rep.delta) == (216, 24, 9)


def test_coprime_product_formula():
    z6 = builtin_group("Z(6)")
    assert hom_count(F2, z6) == 36  # hom into Z_2 times hom into Z_3
    z3d8 = builtin_group("Z(3)*D(8)")
    d = epi_count(F2, z3d8).delta
    assert d == epi_count(F2, builtin_group("Z(3)")).delta * epi_count(F2, D8).delta


def test_lift_statistics_through_s4():
    # 18 epimorphisms onto S_3, each with 16 lifts of which 12 survive
    *_, epi_in, epi_out = list(counting._orbit_levels(F2, S4, epi=True))[-1]
    assert epi_in == 18 and epi_out == 216
    assert 216 == 18 * (16 - 4)


def test_epi_lift():
    # lift_frontier on one epimorphism row at a time
    lay = S4.layers[2]
    for images in epi_maps(F2, S4)[1]:
        out, _ = lift_frontier(F2, lay, np.array([images], dtype=np.int32), epi=True)
        assert len(out) == 12  # 16 lifts minus the 4 complements
        assert all(len(lay.group.closure(t)) == 24 for t in out.tolist())
    for images in epi_maps(KLEIN, S4)[1]:
        out, _ = lift_frontier(KLEIN, lay, np.array([images], dtype=np.int32), epi=True)
        assert len(out) == 0
    # a non-liftable epimorphism into a non-split layer gives nothing
    bs15 = builtin_presentation("bs", 1, 5)
    for images in epi_maps(bs15, D8)[1]:
        out, dims = lift_frontier(bs15, D8.layers[2], np.array([images], dtype=np.int32),
                                  epi=True)
        assert len(out) == 0 and dims.tolist() == [-1]
    # a map that is not onto its level trips the complement tally
    with pytest.raises(CountError):
        lift_frontier(F2, lay, np.zeros((1, 2), dtype=np.int32), epi=True)


def test_cap_fires_before_the_lifts_at_its_level(monkeypatch):
    # F2 -> S4 lifts one map per conjugacy orbit: level 1 reads the lifts
    # of the trivial map (3 epimorphisms, 4 homomorphisms onto Z_2, each its
    # own orbit) off the source's kept elimination, whose grid it expands
    # once, level 2 builds the lifts of those (3 * 6 epimorphisms, 4 * 9
    # homomorphisms into S_3), and the top level builds nothing
    P = parse_presentation("< x, y | >")
    built, expanded = [], []
    real, real_grid = counting.solution_arrays, Elimination.homogeneous
    monkeypatch.setattr(counting, "solution_arrays",
                        lambda results: built.append(1) or real(results))
    monkeypatch.setattr(Elimination, "homogeneous", lambda elim, g: expanded.append(
        g not in elim._homogeneous) or real_grid(elim, g))
    with pytest.raises(CapExceeded, match="level 2 would reach 18 "):
        epi_count(P, S4, cap=10)
    with pytest.raises(CapExceeded, match="level 2 would reach 36 "):
        hom_count(P, S4, cap=30)
    assert built == [] and expanded == [True, False]
    # at level 1 the cap is compared with the number of lifts before the
    # grid is read
    with pytest.raises(CapExceeded, match="epimorphism frontier at level 1 would reach 3 "):
        epi_count(P, S4, cap=2)
    with pytest.raises(CapExceeded, match="homomorphism frontier at level 1 would reach 4 "):
        hom_count(P, S4, cap=3)
    assert built == [] and len(expanded) == 2
    assert epi_count(P, S4, cap=18).epi == 216
    assert hom_count(P, S4, cap=36) == 576
    # free(25) has 2^25 homomorphisms onto Z_2, past the default cap: it
    # fires before their grid of 2^25 rows of 25 unknowns is expanded
    expanded.clear()
    with pytest.raises(CapExceeded, match="homomorphism frontier at level 1 would reach 33554432 "):
        hom_count(builtin_presentation("free", 25), builtin_group("Z(4)"))
    assert expanded == []


def test_complement_rows_match_the_surjectivity_walk():
    # on every layer of every catalog tower of order <= 48, the lifts kept
    # by excluding the complement rows are the lifts that the subgroup walk
    # finds surjective; a few epimorphisms per level, continued upwards
    towers = [builtin_group(spec) for spec in CATALOG_SPECS]
    for label in ["free(2)", "surface(2)", "braid(4)", "bs(2,6)"]:
        P = builtin_from_string(label)
        for tower in towers:
            if tower.order > 48:
                continue
            frontier = np.zeros((1, P.n), dtype=np.int32)
            for lay in tower.layers:
                sample = frontier[:: max(1, len(frontier) // 12)]
                lifts, _ = lift_frontier(P, lay, sample, epi=False)
                walk = [t for t in lifts.tolist()
                        if len(lay.group.closure(t)) == len(lay.group)]
                frontier, _ = lift_frontier(P, lay, sample, epi=True)
                assert frontier.tolist() == walk
                if not len(frontier):
                    break


def _long_word_source(letters, seed):
    """A one-relator source on x, y whose relator is a freely reduced word
    of ``letters`` letters."""
    rng = np.random.default_rng(seed)
    word = []
    while len(word) < letters:
        g, e = int(rng.integers(2)), int(rng.choice([-1, 1]))
        if not word or word[-1] != (g, -e):
            word.append((g, e))
    text = " ".join("xy"[g] + ("^-1" if e < 0 else "") for g, e in word)
    P = parse_presentation("< x, y | %s >" % text)
    assert len(P.relators[0]) == letters
    return P


def test_kept_bottom_lifts_give_the_cold_counts():
    # every catalog count from a source whose eliminations are kept, with
    # the bottom lifts expanded in them, equals the count from a freshly
    # parsed copy, which makes them anew; the source keeps one entry per
    # (q, s), each bottom among them, its matrix read-only
    towers = [builtin_group(spec) for spec in CATALOG_SPECS]
    sources = [functools.partial(builtin_from_string, label)
               for label in ["free(3)", "surface(2)", "bs(2,6)"]]
    sources.append(functools.partial(_long_word_source, 399, 7))
    for fresh in sources:
        cold = [(hom_count(fresh(), tower), epi_count(fresh(), tower).level_epi)
                for tower in towers]
        warm = fresh()
        for _ in range(2):  # the first pass fills the entries, the second reads them
            assert [(hom_count(warm, tower), epi_count(warm, tower).level_epi)
                    for tower in towers] == cold
        assert {(t.layers[0].q, t.layers[0].s) for t in towers} <= set(warm.eliminations)
        for (q, s), (kept, elim) in warm.eliminations.items():
            assert kept.shape == (len(warm.relators) * s, warm.n * s)
            assert not kept.flags.writeable and elim.dims.shape == (1,)


def test_corrupted_bottom_layer_raises_after_its_lifts_are_kept(monkeypatch):
    # the source's elimination for Z_2, whose grid holds the bottom lifts,
    # is kept by the first counts; a changed alpha of the bottom layer trips
    # the level arithmetic, which runs on every count, below the top and at
    # the top of a one-layer tower
    P = parse_presentation("< x, y | x^3 y^2 >")
    tower, z2 = builtin_group("D(8)"), builtin_group("Z(2)")
    want = epi_count(P, tower).level_epi
    assert hom_count(P, tower) == brute_hom(P, tower.group).count
    assert epi_count(P, z2).epi == 1 and list(P.eliminations) == [(2, 1)]
    for lay, target in [(tower.layers[0], tower), (z2.layers[0], z2)]:
        with monkeypatch.context() as m:
            m.setattr(lay, "alpha", lay.alpha + 1)
            with pytest.raises(CountError, match="level arithmetic"):
                epi_count(P, target)
    assert list(P.eliminations) == [(2, 1)] and epi_count(P, tower).level_epi == want


def test_self_checks_fire_on_corrupted_data(monkeypatch):
    tower = builtin_group("S(4)")
    lay = tower.layers[-1]
    sections = lay.sections
    bad = sections.copy()
    bad[0] = (sections[0] + len(lay.base)) % len(lay.group)
    # the complement rows are checked where they are set, and the stored
    # rows are read-only, so no change reaches a count unchecked
    with pytest.raises(GroupSpecError, match="complement"):
        lay.sections = bad
    with pytest.raises(ValueError, match="read-only"):
        lay.sections[0] = bad[0]
    assert lay.sections is sections and epi_count(F2, tower).epi == 216
    # a reordering of the valid rows is accepted, stored read-only, and
    # counts the same
    lay.sections = sections[::-1]
    assert np.array_equal(lay.sections, sections[::-1]) and len(sections) == 4
    assert not lay.sections.flags.writeable and epi_count(F2, tower).epi == 216
    lay.alpha += 1
    with pytest.raises(CountError, match="level arithmetic"):
        epi_count(F2, tower)
    lay.alpha -= 1
    monkeypatch.setattr(counting, "aut_order", lambda table: 5)
    with pytest.raises(CountError, match="not divisible"):
        epi_count(F2, tower)


def test_counted_path_matches_full_enumeration(monkeypatch):
    # the orbit-reduced, top-counted path against every map enumerated:
    # each level's epi_out (the top one is |Epi|), lifted modulo conjugation
    # and modulo the series automorphisms, against epi_maps (every level's
    # maps enumerated in one pass), and Hom, lifted
    # modulo both, against the oracle, which walks up to 48^4 image tuples
    # in chunks
    towers = [builtin_group(spec) for spec in CATALOG_SPECS]
    for label in ["free(2)", "surface(2)", "braid(4)", "bs(2,6)", "klein"]:
        P = builtin_from_string(label)
        for tower in towers:
            if tower.order > 48:
                continue
            spec = tower.spec
            rep = epi_count(P, tower, with_aut=False)
            assert [stats["epi_out"] for stats in rep.levels] == [
                len(maps) for maps in epi_maps(P, tower)], (label, spec)
            assert epi_count(P, tower).level_epi == rep.level_epi, (label, spec)
            with monkeypatch.context() as m:
                m.setattr(tower, "orbit_group", conjugation_orbit_groups(tower))
                assert epi_count(P, tower, with_aut=False).level_epi == rep.level_epi
                inn = hom_count(P, tower)
            assert hom_count(P, tower) == inn == brute_hom(P, tower.group).count, (label, spec)


def test_abelian_upper_levels_match_the_oracle():
    # Z(3)*D(8): conjugation merges few maps in the abelian upper levels, so
    # every level solves thousands of systems in one batch
    P = builtin_presentation("surface", 2)
    tower = builtin_group("Z(3)*D(8)")
    assert hom_count(P, tower) == brute_hom(P, tower.group).count == 176256
    assert epi_count(P, tower).epi == len(epi_maps(P, tower)[-1]) == 115200


def test_orbit_frontier_shape(monkeypatch):
    # Dstar(48) from surface(2): the 11520 epimorphisms onto the level-4
    # group (order 16, centre of order 2) are kept as 1440 orbits of size
    # 8 under conjugation, and as 360 orbits of size 32 under the series
    # automorphisms; the 276480 onto the top are counted, not stored
    tower = builtin_group("Dstar(48)")
    surface = builtin_presentation("surface", 2)
    inn = conjugation_orbit_groups(tower)
    for group, orbits, size in [(inn, 1440, 8), (tower.orbit_group, 360, 32)]:
        with monkeypatch.context() as m:
            m.setattr(tower, "orbit_group", group)
            levels = list(counting._orbit_levels(surface, tower, epi=True))
        _, reps, weights, _, _ = levels[3]
        assert (len(reps), set(weights.tolist())) == (orbits, {size})
        assert levels[-1][1] is None and levels[-1][4] == 276480
        # each representative is the least of its images under the group
        images = group(4).rows[:, reps].transpose(1, 0, 2)
        assert all(min(map(tuple, c.tolist())) == tuple(r) for c, r in zip(images, reps.tolist()))
    # the acting groups per level: Inn(B_i) and the image of Aut(Gamma, series)
    assert [len(inn(i)) for i in range(1, 5)] == [1, 1, 4, 8]
    assert [len(tower.orbit_group(i)) for i in range(1, 5)] == [1, 2, 8, 32]


def test_hom_orbit_frontier_shape(monkeypatch):
    # D(48) from surface(2): the maps into the level-3 and level-4 groups
    # (orders 8 and 16) are kept as 736 and 4096 conjugacy orbits, and as
    # 436 and 1756 orbits of the series automorphisms (|A_3| = 8 and
    # |A_4| = 32 against |Inn B_3| = 4 and |Inn B_4| = 8), which hom_count
    # lifts; every orbit size divides the order of its acting group
    tower = builtin_group("D(48)")
    surface = builtin_presentation("surface", 2)
    inn = conjugation_orbit_groups(tower)
    assert [len(tower.orbit_group(i)) for i in range(1, 5)] == [1, 2, 8, 32]
    for group, sizes in [(inn, [16, 256, 736, 4096]),
                         (tower.orbit_group, [16, 136, 436, 1756])]:
        with monkeypatch.context() as m:
            m.setattr(tower, "orbit_group", group)
            levels = list(counting._orbit_levels(surface, tower, epi=False))
        assert [len(reps) for _, reps, *_ in levels[:-1]] == sizes
        for level, reps, weights, _, maps_out in levels[:-1]:
            assert weights.sum() == maps_out and not (len(group(level)) % weights).any()
        assert levels[-1][4] == 746496
    # hom_count builds one orbit group per level below the top on a fresh
    # tower, each the image of the series automorphisms
    tower = builtin_group("D(48)")
    assert hom_count(surface, tower) == 746496
    assert sorted(tower._orbit_groups) == [1, 2, 3, 4]
    assert [len(tower._orbit_groups[i]) for i in range(1, 5)] == [1, 2, 8, 32]


def test_hom_falls_back_to_conjugation_where_the_search_is_refused(monkeypatch):
    # the series search onto Z(2)^9 would try 2^36 tuples, and the one onto
    # Z(2)^5*D(8) would keep 32768 prefixes of 256 entries for its first
    # five generators, so every level's acting group is conjugation
    # (trivial on Z(2)^9), and Hom gives the same count as with conjugation
    # put in place
    for spec, count, refusal in [("Z(2)^9", 2**18, "would try 68719476736 candidate"),
                                 ("Z(2)^5*D(8)", 65536, "would keep at least")]:
        tower = builtin_group(spec)
        assert hom_count(F2, tower) == count
        with pytest.raises(CapExceeded, match=refusal):
            tower._series_automorphisms()
        inn = conjugation_orbit_groups(tower)
        levels = range(1, len(tower.layers))
        assert sorted(tower._orbit_groups) == list(levels)
        assert all(np.array_equal(np.unique(tower._orbit_groups[i].rows, axis=0), inn(i).rows)
                   for i in levels), spec
        with monkeypatch.context() as m:
            m.setattr(tower, "orbit_group", inn)
            assert hom_count(F2, tower) == count


def test_weight_per_dim_is_exact_past_float_sums():
    # weights 2^53 and 1 at one d round to 2^53 as a float sum, so the
    # totals are summed as int64; the maps that do not lift (d = -1) are
    # kept apart as d None
    dims = np.array([0, 2, 0, -1, 2])
    weights = np.array([1 << 53, 3, 1, 5, 4], dtype=np.int64)
    assert float(1 << 53) + 1.0 == float(1 << 53)
    assert counting._weight_per_dim(dims, weights) == [
        (None, 5), (0, sum([1 << 53, 1])), (2, sum([3, 4]))]


def test_orbit_representatives_against_every_image():
    # random rows of 3 entries on every level of every catalog tower and on
    # the top two levels of D(256), where |B| is 128 and 256, under the
    # series automorphisms A and under Inn, and of 12 entries over
    # Dstar(48), whose packed keys take two int64 chunks (48^12 > 2^62);
    # half the rows differ from the other half in the last entry only, so
    # some least images agree on every chunk but the last.  Each
    # representative is the least image of its row under the whole group,
    # and its weight the number of distinct images.  The images of all rows
    # are sorted together, by row and then entry by entry.
    rng = np.random.default_rng(3)
    towers = {spec: builtin_group(spec) for spec in CATALOG_SPECS + ["D(256)"]}
    cases = [(spec, level, 3) for spec, tower in towers.items()
             for level in range(1, len(tower.layers) + 1) if spec != "D(256)" or level > 6]
    for spec, level, n in cases + [("Dstar(48)", 5, 12)]:
        tower = towers[spec]
        for group in (conjugation_orbit_groups(tower)(level), tower.orbit_group(level)):
            nB = group.rows.shape[1]
            rows = rng.integers(nB, size=(100, n)).astype(np.int32)
            twins = rows.copy()
            twins[:, -1] = rng.integers(nB, size=100)
            rows = np.unique(np.vstack([rows, twins]), axis=0)
            reps, weights = counting._orbit_representatives(group, rows)
            images = group.rows[:, rows].transpose(1, 0, 2).reshape(-1, n)
            owner = np.repeat(np.arange(len(rows)), len(group))
            order = np.lexsort([*images.T[::-1], owner])
            images, owner = images[order], owner[order]
            first = np.ones(len(owner), dtype=bool)
            first[1:] = (owner[1:] != owner[:-1]) | (images[1:] != images[:-1]).any(axis=1)
            least = images[np.searchsorted(owner, np.arange(len(rows)))]
            distinct = np.bincount(owner[first], minlength=len(rows))
            want = dict(zip(map(tuple, least.tolist()), distinct.tolist()))
            assert [tuple(r) for r in reps.tolist()] == sorted(want), (spec, level)
            assert weights.tolist() == [want[r] for r in sorted(want)], (spec, level)


def test_warm_stabiliser_chain_builds_no_node(monkeypatch):
    # on every level of every catalog tower and of D(256), a second pass of
    # the same rows through the chain the first pass built builds no node,
    # descend never returns -1, and the representatives equal those of a
    # fresh PermutationGroup of the same rows, whose chain the pass builds
    rng = np.random.default_rng(5)
    built = []
    real_node, real_descend = PermutationGroup._node, PermutationGroup.descend

    def descend(group, nodes, points):
        kids = real_descend(group, nodes, points)
        assert (kids >= 0).all()
        return kids

    monkeypatch.setattr(PermutationGroup, "_node",
                        lambda group, members: built.append(members) or real_node(group, members))
    monkeypatch.setattr(PermutationGroup, "descend", descend)
    for spec in CATALOG_SPECS + ["D(256)"]:
        tower = builtin_group(spec)
        for level in range(1, len(tower.layers) + 1):
            group = tower.orbit_group(level)
            rows = rng.integers(group.rows.shape[1], size=(200, 4)).astype(np.int32)
            counting._orbit_representatives(group, rows)
            built.clear()
            reps, weights = counting._orbit_representatives(group, rows)
            assert not built, (spec, level)
            fresh = counting._orbit_representatives(PermutationGroup(group.rows), rows)
            assert np.array_equal(reps, fresh[0]) and np.array_equal(weights, fresh[1]), (spec, level)


def test_planted_errors_raise(monkeypatch):
    # a wrong orbit weight
    real = counting._orbit_representatives

    def heavier(table, rows):
        reps, weights = real(table, rows)
        weights[:1] += 1
        return reps, weights

    monkeypatch.setattr(counting, "_orbit_representatives", heavier)
    with pytest.raises(CountError, match="level arithmetic"):
        hom_count(F2, S4)
    with pytest.raises(CountError, match="orbit at level 1 has a size"):
        epi_count(F2, S4)
    # a weight moved from one Hom orbit to another keeps the level's total,
    # but 3 does not divide |A_3| = 8 for D(16)'s series automorphisms
    def moved(table, rows):
        reps, weights = real(table, rows)
        if len(table) == 8:
            weights[:2] += [2, -2]
        return reps, weights

    monkeypatch.setattr(counting, "_orbit_representatives", moved)
    with pytest.raises(CountError, match="orbit at level 3 has a size that does not divide"):
        hom_count(F2, builtin_group("D(16)"))
    monkeypatch.setattr(counting, "_orbit_representatives", real)
    # a permutation of S(3), the level-2 group, that is not an automorphism
    # (it swaps an element of order 2 with one of order 3) planted among
    # the acting rows
    swap = np.arange(6)
    swap[[1, 2]] = [2, 1]

    def planted(i):
        rows = real_group(i).rows
        return PermutationGroup(np.vstack([rows, swap]) if i == 2 else rows)

    real_group = S4.orbit_group
    with monkeypatch.context() as m:
        m.setattr(S4, "orbit_group", planted)
        with pytest.raises(CountError, match="orbit at level 2 has a size"):
            list(counting._orbit_levels(F2, S4, epi=True))
    # a dropped complement row, below the top and at the top, is refused
    # where it is set; one planted past that check below the top still
    # trips lift_frontier's tally of the complement lifts, and so does a
    # duplicated row, which drops one lift where two are owed
    for lay in S4.layers[1:]:
        with pytest.raises(GroupSpecError, match="complement"):
            lay.sections = lay.sections[1:]
    sec = S4.layers[1].sections
    assert len(sec) == 3
    with monkeypatch.context() as m:
        m.setattr(S4.layers[1], "_sections", sec[1:])
        with pytest.raises(CountError, match="complement"):
            epi_count(B4, S4)
        m.setattr(S4.layers[1], "_sections", sec[[0, 0, 2]])
        with pytest.raises(CountError, match="surjective lift tally"):
            epi_count(B4, S4)
    # a system that its complement lifts do not solve, at the top and on
    # the middle layer, where the enumerated Hom level is checked too
    real_build = counting.build_systems
    for planted in [S4.layers[-1], S4.layers[1]]:
        def shifted(P, images, lay):
            A, chi = real_build(P, images, lay)
            return A, (chi + (lay is planted)) % lay.q

        monkeypatch.setattr(counting, "build_systems", shifted)
        with pytest.raises(CountError, match="does not solve"):
            epi_count(B4, S4)
        with pytest.raises(CountError, match="does not solve"):
            hom_count(B4, S4)
        with pytest.raises(CountError, match="complement lift is not found"):
            hom_count(B4, S4)
    # the same on D(8)'s middle layer, Z_2 over Z_2 with trivial action,
    # whose systems solve through the elimination the source keeps
    planted = D8.layers[1]
    monkeypatch.setattr(counting, "build_systems", shifted)
    for count in [hom_count, lambda P, T: epi_count(P, T).epi]:
        with pytest.raises(CountError, match="does not solve"):
            count(B4, D8)
    monkeypatch.setattr(counting, "build_systems", real_build)
    assert epi_count(B4, S4).epi == 72 and hom_count(B4, S4) == 144
    # a kept elimination whose matrix differs from the level's in every
    # entry
    want = hom_count(B4, D8), epi_count(B4, D8).epi
    wrong = (B4.eliminations[(2, 1)][0] + 1) % 2
    with monkeypatch.context() as m:
        m.setitem(B4.eliminations, (2, 1), (wrong, eliminate(wrong[None], 2)))
        for count in [hom_count, lambda P, T: epi_count(P, T).epi]:
            with pytest.raises(CountError, match="differs from the one its source shares"):
                count(B4, D8)
    assert (hom_count(B4, D8), epi_count(B4, D8).epi) == want


def test_kept_elimination_is_checked_against_the_abelian_invariants(monkeypatch):
    # each kept elimination is made mod q from the relators' exponent sums,
    # and its d is checked once against the Smith form over Z: bs(2,6) has
    # abelianization Z + Z_4, and planted invariants with a second 2-primary
    # factor are refused where the Z_2 entry is made, while Z_3's entry,
    # which they leave as it is, counts on
    P = builtin_from_string("bs(2,6)")
    assert P.abelian_invariants == AbelianInvariants(1, ((2, (0, 1)),))
    monkeypatch.setitem(P.__dict__, "abelian_invariants", AbelianInvariants(1, ((2, (1, 1)),)))
    with pytest.raises(CountError, match="abelian invariants 2\\^3"):
        hom_count(P, builtin_group("Z(2)"))
    assert hom_count(P, builtin_group("Z(3)")) == 3 and list(P.eliminations) == [(3, 1)]


def test_a_wrong_fox_block_on_every_trivial_layer_raises(monkeypatch):
    # the kept matrix comes from the exponent sums, not from a walk, so a
    # block planted in the walk of every layer of trivial action differs
    # from it, on the bottom layer too, which walks nothing; bs(2,6) has 16
    # homomorphisms onto Z(4), and the planted walks agree among themselves
    z4 = builtin_group("Z(4)")
    assert hom_count(builtin_from_string("bs(2,6)"), z4) == 16
    real_build = counting.build_systems

    def planted(P, images, lay):
        A, chi = real_build(P, images, lay)
        if not lay.zeta:
            block = np.kron(np.ones((len(P.relators), P.n), dtype=np.int64),
                            np.eye(lay.s, dtype=np.int64))
            A = (A + block) % lay.q
        return A, chi

    monkeypatch.setattr(counting, "build_systems", planted)
    for count in [hom_count, lambda P, T: epi_count(P, T).epi]:
        with pytest.raises(CountError, match="differs from the one its source shares"):
            count(builtin_from_string("bs(2,6)"), z4)


def test_shared_eliminations_match_the_per_map_solver(monkeypatch):
    # on every level that solves through the elimination its source keeps
    # (a layer of trivial action, or any layer for free(2), which has no
    # relators), the batch equals solve_systems' map by map: solvable,
    # dims, free and x0, the same solutions in the same order, and the
    # same place for each of them; Hom and Epi on every catalog tower of
    # order <= 48, each source parsed afresh so that its eliminations are
    # filled here
    real_build, real_shared = counting.build_systems, counting._shared_elimination
    walked, levels = [], []

    def build(P, images, lay):
        walked[:] = real_build(P, images, lay)
        return tuple(walked)

    def shared(P, lay, A=None):
        if A is None:  # the bottom level, which walks nothing
            return real_shared(P, lay)
        elim = real_shared(P, lay, A)
        assert A is walked[0]
        got = elim.solve(-walked[1], np.zeros(len(A), dtype=np.intp))
        want = solve_systems(A, -walked[1], lay.q)
        for key in ["solvable", "dims", "x0"]:
            assert (getattr(got, key) == getattr(want, key)).all(), key
        assert (got.elim.free[got.which] == want.elim.free[want.which]).all(), "free"
        sols = solution_arrays(got)
        assert sols.shape == solution_arrays(want).shape
        assert (sols == solution_arrays(want)).all()
        # one matrix, one d: solution t of each solvable map is X[t]
        size = lay.q ** int(want.dims[0])
        X = np.zeros((size,) + want.x0.shape, dtype=np.int64)
        X[:, want.solvable] = sols.reshape(-1, size, sols.shape[1]).transpose(1, 0, 2)
        assert (got.place(X)[:, want.solvable] == np.arange(size)[:, None]).all()
        assert (got.place(X) == want.place(X)).all()
        levels.append(len(A))
        return elim

    monkeypatch.setattr(counting, "build_systems", build)
    monkeypatch.setattr(counting, "_shared_elimination", shared)
    towers = [t for t in map(builtin_group, CATALOG_SPECS) if t.order <= 48]
    for label in ["surface(2)", "braid(4)", "bs(2,6)", "free(2)"]:
        P = parse_presentation(str(builtin_from_string(label)))
        for tower in towers:
            hom_count(P, tower)
            epi_count(P, tower, with_aut=False)
        assert P.eliminations, label
    assert len(levels) > 400 and max(levels) > 1000


def test_top_rank_counts_match_the_solver(monkeypatch):
    # the top layer is counted: every representative's d equals
    # solve_systems' dims where its system solves and -1 elsewhere, and so
    # does the rank count d = C - rank A where rank A = rank [A | chi]
    # (``solution_dims``), which counts every acting top layer; Hom and Epi
    # on the top level of every catalog tower of order <= 48
    real_count, real_dims = counting._count_top, counting.solution_dims
    seen, ranked = [], []

    def count(P, lay, reps):
        got = real_count(P, lay, reps)
        A, chi = counting.build_systems(P, reps, lay)
        want = solve_systems(A, -chi, lay.q)
        want = np.where(want.solvable, want.dims, -1)
        assert (got == want).all() and (real_dims(A, -chi, lay.q) == want).all()
        seen.extend(got.tolist())
        return got

    monkeypatch.setattr(counting, "_count_top", count)
    monkeypatch.setattr(counting, "solution_dims", lambda A, rhs, q: ranked.append(len(A))
                        or real_dims(A, rhs, q))
    towers = [t for t in map(builtin_group, CATALOG_SPECS) if t.order <= 48]
    for label in ["surface(2)", "braid(4)", "bs(2,6)", "hillman_link", "free(2)"]:
        P = parse_presentation(str(builtin_from_string(label)))
        for tower in towers:
            hom_count(P, tower)
            epi_count(P, tower, with_aut=False)
    assert len(seen) > 30000 and seen.count(-1) > 5000 and max(seen) > 4
    assert len(ranked) > 100 and sum(ranked) > 10000


def test_a_level_that_keeps_no_lift_builds_none(monkeypatch):
    # braid(4)'s one epimorphism onto Z_2 lifts through D(8)'s middle layer
    # only by its c = 2 complement lifts: that level builds no solution
    # grid, nor does the bottom, which reads its lifts off the kept
    # elimination, and a duplicated complement row there still trips the
    # tally
    P = parse_presentation(str(B4))
    built = []
    real = counting.solution_arrays
    monkeypatch.setattr(counting, "solution_arrays", lambda sol: built.append(1) or real(sol))
    levels = list(counting._orbit_levels(P, D8, epi=True))
    assert [lv[4] for lv in levels] == [1, 0, 0] and levels[1][1].shape == (0, 2)
    assert built == []
    sec = D8.layers[1].sections
    with monkeypatch.context() as m:
        m.setattr(D8.layers[1], "_sections", sec[[0, 0]])
        with pytest.raises(CountError, match="surjective lift tally"):
            epi_count(P, D8)
    assert built == []


def test_relator_free_hom_skips_the_complement_vectors(monkeypatch):
    # without relators A X + chi = 0 has no rows, so Hom forms no complement
    # vectors on any level, the top included; Epi forms them for their
    # places in each map's block of solutions
    calls = []
    real = counting._complement_vectors
    monkeypatch.setattr(counting, "_complement_vectors",
                        lambda lay, images: calls.append(len(images)) or real(lay, images))
    tower = builtin_group("Z(2)^8")
    assert hom_count(F3, tower) == 2**24
    assert calls == []
    assert epi_count(F3, tower, with_aut=False).epi == 0
    assert calls


def test_klein_lifts():
    *_, epi_in, epi_out = list(counting._orbit_levels(KLEIN, S4, epi=True))[-1]
    assert epi_in == 6 and epi_out == 0
    assert epi_count(KLEIN, S4).delta == 0
    assert epi_count(KLEIN, S3).delta == 1


def test_braid_counts():
    assert hom_count(B3, S3) == 12
    assert epi_count(B3, S3).epi == 6
    assert epi_count(B3, S4).delta == 1
    assert epi_count(B4, S4).delta == 3
    for spec in ["S(3)", "D(8)", "A(4)"]:
        assert epi_count(B5, builtin_group(spec)).delta == 0
    assert epi_count(B5, builtin_group("Z(6)")).delta == 1


def test_closed_form_eulerian_dihedral():
    assert closed_form_eulerian("dihedral", (3,), 2) == 18
    assert closed_form_eulerian("dihedral", (4,), 2) == 24
    for m in range(2, 13):
        tw = builtin_group("D(%d)" % (2 * m))
        for n in (1, 2, 3):
            got = epi_count(builtin_presentation("free", n), tw, with_aut=False).epi
            assert got == closed_form_eulerian("dihedral", (m,), n)


def test_closed_form_eulerian_binary_dihedral():
    assert closed_form_eulerian("binary_dihedral", (2,), 2) == 24
    for m in range(1, 7):
        tw = builtin_group("Dstar(%d)" % (4 * m))
        for n in (1, 2, 3):
            got = epi_count(builtin_presentation("free", n), tw, with_aut=False).epi
            assert got == closed_form_eulerian("binary_dihedral", (m,), n)


def test_closed_form_surface_families():
    # the displayed forms are valid for m odd or m = 2 mod 4; for 4 | m the
    # engine (confirmed by the brute-force oracle) disagrees with them, so
    # that corner is rejected
    for g in (1, 2):
        Pg = builtin_presentation("surface", g)
        Pn = builtin_presentation("nonorientable", 2 * g)
        for m in (1, 2, 3, 6, 10, 15):
            tw = builtin_group("D(%d)" % (2 * m)) if m > 1 else builtin_group("Z(2)")
            a = epi_count(Pg, tw, with_aut=False).epi
            b = epi_count(Pn, tw, with_aut=False).epi
            assert a == closed_form_eulerian("surface", (g, m), None)
            assert b == closed_form_eulerian("nonorientable", (2 * g, m), None)
    with pytest.raises(ValueError):
        closed_form_eulerian("surface", (2, 4), None)
    with pytest.raises(ValueError):
        closed_form_eulerian("nonorientable", (2, 8), None)


def test_alternate_drivers_match_engine():
    for label in ["free(2)", "bs(1,3)", "bs(2,4)", "klein", "braid(3)", "surface(2)"]:
        P = builtin_from_string(label)
        ms = (2, 3, 4, 6, 8, 9, 12) if P.n <= 2 else (2, 3, 4, 6)
        for m in ms:
            a = epi_dihedral_recursive(P, m)
            b = epi_count(P, builtin_group("D(%d)" % (2 * m)), with_aut=False).epi
            assert a == b, (label, m)
        for m in (1, 2, 3, 4, 6):
            a = epi_binary_dihedral_recursive(P, m)
            b = epi_count(P, builtin_group("Dstar(%d)" % (4 * m)), with_aut=False).epi
            assert a == b, (label, m)


def test_bs_delta_tables():
    for m in range(1, 7):
        for n in range(m, 7):
            P = builtin_presentation("bs", m, n)
            assert epi_count(P, D8).delta == closed_form_delta("bs_d8", (m, n))
            assert epi_count(P, Q8).delta == closed_form_delta("bs_q8", (m, n))
    assert closed_form_delta("bs_d8", (2, 6)) == 3
    assert closed_form_delta("bs_d8", (1, 3)) == 1
    assert closed_form_delta("bs_d8", (1, 5)) == 0


def test_parafree_s4():
    for m, n in [(1, 3), (2, 4), (3, 5), (1, 1), (-1, 1)]:
        P = builtin_presentation("parafree", m, n)
        want = closed_form_delta("parafree_s4", (m, n))
        assert epi_count(P, S4).delta == want
    assert closed_form_delta("parafree_s4", (1, 3)) == 17
    assert closed_form_delta("parafree_s4", (2, 4)) == 9


def test_hillman_link():
    hl = builtin_presentation("hillman_link")
    assert epi_count(hl, S3).delta == 3
    assert epi_count(hl, S4).delta == 33
    assert delta_s4(hl) == 33


def test_delta_s4_one_layer():
    for P, want in [(F2, 9), (B3, 1), (B4, 3), (KLEIN, 0)]:
        assert delta_s4(P) == want


def test_gaschutz_formula():
    assert gaschutz_eulerian(S4, 2) == 216
    assert gaschutz_eulerian(builtin_group("Z(2)"), 5) == 2**5 - 1
    assert gaschutz_eulerian(D8, 2) == 24
    for spec in ["D(8)", "Q(8)", "A(4)", "S(4)", "M(7,6,3)", "Z(3)*D(8)", "Dstar(24)"]:
        tw = builtin_group(spec)
        for n in (1, 2, 3):
            got = epi_count(builtin_presentation("free", n), tw, with_aut=False).epi
            assert got == gaschutz_eulerian(tw, n)


def test_epi_count_q2p():
    assert epi_count_q2p(F2, 2, 3, 1) == 216
    assert epi_count_q2p(KLEIN, 2, 3, 1) == 0
    bs12 = builtin_presentation("bs", 1, 2)
    assert epi_count_q2p(bs12, 2, 3, 1) == epi_count(
        bs12, builtin_group("V(2,3,1)"), with_aut=False
    ).epi


def test_braid_metabelian_closed_forms_vs_engine():
    for spec, params in [("M(3,4,2)", (1, 3, 4)), ("M(7,6,3)", (2, 7, 6)),
                         ("A(4)", (3, 2, 3))]:
        tw = builtin_group(spec)
        want = closed_form_delta("braid_metabelian", params)
        assert epi_count(B3, tw).delta == want
        assert epi_count(B4, tw).delta == want
    assert closed_form_delta("braid_metabelian", (4, 5, 6)) == 1
    with pytest.raises(ValueError):
        closed_form_delta("braid_metabelian", (1, 3, 5))
    assert closed_form_delta("braid_solvable", (True,)) == 1
    assert closed_form_delta("braid_solvable", (False,)) == 0


def test_table1_deltas_vs_engine():
    # the nine one-layer Hall invariants against the engine on the towers
    # that ak_normal and low_index_via_deltas count with
    sources = [F2, KLEIN, B3, builtin_presentation("bs", 2, 4),
               builtin_presentation("surface", 2)]
    rows = [("S3", "D(6)"), ("D8", "D(8)"), ("Q8", "Q(8)"), ("D12", "D(12)"),
            ("Dstar12", "Dstar(12)"), ("A4", "A(4)"), ("D10", "D(10)"),
            ("D14", "D(14)"), ("S4", "S(4)")]
    for P in sources:
        for name, spec in rows:
            one_layer = delta_s4(P) if name == "S4" else table1_delta(P, name)
            assert one_layer == epi_count(P, builtin_group(spec)).delta, (str(P), name)


def test_dihedral_prime_delta():
    assert dihedral_prime_delta(F2, 3) == 3
    assert dihedral_prime_delta(F2, 5) == epi_count(F2, builtin_group("D(10)")).delta


def test_lifting_stops_at_an_empty_frontier(monkeypatch):
    # braid(3) has one epimorphism onto Z_2 and none onto Z_2^2, and bs(1,2)
    # one onto Z_2 and none onto Z_2^2 below Q(8): the levels above the empty
    # one report 0 with their layer constants, as when they were lifted, and
    # no system is built for them; the bottom level builds none either
    calls = []
    real = counting.build_systems
    monkeypatch.setattr(counting, "build_systems",
                        lambda P, images, lay: calls.append(len(images)) or real(P, images, lay))
    # per level: q, s, zeta, kappa, alpha, split, epi_in, epi_out
    for label, spec, values in [
        ("braid(3)", "Z(2)^3", [(2, 1, 0, 1, 1, 1, 1, 1), (2, 1, 0, 1, 2, 1, 1, 0),
                                (2, 1, 0, 1, 3, 1, 0, 0)]),
        ("bs(1,2)", "Q(8)", [(2, 1, 0, 1, 1, 1, 1, 1), (2, 1, 0, 1, 2, 1, 1, 0),
                             (2, 1, 0, 1, 2, 0, 0, 0)]),
    ]:
        calls.clear()
        rep = epi_count(builtin_from_string(label), builtin_group(spec))
        assert [tuple(lv.values()) for lv in rep.levels] == values
        assert [lv["epi_out"] for lv in rep.levels] == [1, 0, 0]
        assert calls == [1]
        levels = list(counting._orbit_levels(builtin_from_string(label), builtin_group(spec),
                                             epi=True))
        _, reps, weights, _, _ = levels[1]
        assert reps.shape == (0, 2) and len(weights) == 0 and levels[2][1] is None


def test_delta_integrality_enforced():
    # delta is |Epi| / |Aut| with exact division on every computed pair
    for label in ["free(2)", "bs(1,3)", "klein", "braid(3)", "parafree(1,3)"]:
        P = builtin_from_string(label)
        for spec in ["S(3)", "D(8)", "Q(8)", "A(4)", "S(4)", "D(12)"]:
            rep = epi_count(P, builtin_group(spec))
            assert rep.epi == rep.delta * rep.aut


def test_epi_maps_are_epimorphisms():
    maps = epi_maps(F2, S4)[-1]
    assert len(maps) == 216
    table = S4.group
    assert all(len(table.closure(im)) == 24 for im in maps[:10])


def test_aut_by_lifting_matches_report():
    rep = epi_count(B4, S4)
    assert rep.aut == aut_order_by_lifting(S4) == 24


def test_aut_by_lifting_modulo_the_series_automorphisms(monkeypatch):
    # lifting modulo A reaches |GL(5, 2)|, where the full search behind
    # aut_order refuses 28629151 candidate tuples
    assert aut_order_by_lifting(builtin_group("Z(2)^5")) == 9999360
    # D(48)'s A image at level 3 (|A_3| = 8) or 4 (|A_4| = 32) less one
    # non-identity row is no group, and every such plant is refused
    tower = builtin_group("D(48)")
    real = tower.orbit_group
    for level in (3, 4):
        rows = real(level).rows
        n = rows.shape[1]
        for k in np.flatnonzero((rows != np.arange(n)).any(axis=1)):
            rest = np.delete(rows, k, axis=0)
            products = {tuple(r) for r in rest[:, rest].reshape(-1, n).tolist()}
            assert not products <= {tuple(r) for r in rest.tolist()}
            with monkeypatch.context() as m:
                m.setattr(tower, "orbit_group",
                          lambda i, rest=rest, level=level:
                          PermutationGroup(rest) if i == level else real(i))
                with pytest.raises(CountError, match="orbit at level %d has a size" % level):
                    aut_order_by_lifting(tower)
    assert aut_order_by_lifting(tower) == 192


def test_report_json_shape():
    # the report keeps one weighted Epi count per level and reads the layer
    # constants of each level from the tower
    rep = epi_count(B4, S4)
    assert (rep.epi, rep.aut, rep.delta, rep.level_epi) == (72, 24, 3, (1, 6, 72))
    assert [list(lv) for lv in rep.levels] == [
        ["q", "s", "zeta", "kappa", "alpha", "split", "epi_in", "epi_out"]
    ] * 3
    assert [(lv["q"], lv["s"], lv["epi_in"]) for lv in rep.levels] == [
        (2, 1, 1), (3, 1, 1), (2, 2, 6)
    ]


def test_enumerate_epis_to_table():
    epis = enumerate_epis_to_table(F2, builtin_group("Z(2)^2").group)
    assert len(epis) == 6


def test_long_relator_counts():
    # the lifting systems of a level are built in one batched walk, whose
    # prefix scan takes log2 of the relator length in doubling steps, so a
    # relator of 100002 letters costs 17 array passes per level
    from solvquot.presentations import abelian_invariants
    from solvquot.subgrowth import delta_abelian_closed

    P = parse_presentation("< x, y | x^100000 y^2 >")
    rep = epi_count(P, builtin_group("Z(2)"))
    assert (rep.epi, rep.delta, hom_count(P, builtin_group("Z(2)"))) == (3, 3, 4)
    assert rep.delta == delta_abelian_closed(abelian_invariants(P), ("cyclic", 2, 1))
    rep = epi_count(P, builtin_group("S(3)"))
    assert rep.delta == 1 == table1_delta(P, "S3")


@pytest.mark.slow
def test_deep_dihedral_counts():
    # Epi and delta onto D(256) and D(128), lifted modulo the series
    # automorphisms, and Hom onto both against Frobenius' formula
    # |Hom(surface(2), G)| = |G| sum over the irreducible characters chi of
    # (|G| / chi(1))^2
    P = builtin_presentation("surface", 2)
    d256, d128 = builtin_group("D(256)"), builtin_group("D(128)")
    rep = epi_count(P, d256)
    assert (rep.epi, rep.delta) == (47185920, 5760)
    assert epi_count(P, d128).epi == 5898240
    frobenius = {}
    for tower, hom in [(d128, 24641536), (d256, 331350016)]:
        table = tower.group
        classes = len({frozenset(table.conjugates(x)) for x in range(table.n)})
        linear = table.n // len(table.derived_subgroup())
        # the other irreducible characters of a dihedral group have degree 2
        degrees = [1] * linear + [2] * (classes - linear)
        assert sum(d * d for d in degrees) == table.n
        frobenius[table.n] = table.n * sum((table.n // d) ** 2 for d in degrees)
        assert hom_count(P, tower) == frobenius[table.n] == hom
    # Epi again by P. Hall's Moebius sum over the subgroups of D(256) that
    # contain its Frattini subgroup Z(64): D(256) (mu = 1), Z(128) and two
    # D(128) (mu = -1) and Z(64) (mu = 2), with |Hom(surface(2), Z(n))| = n^4
    assert (frobenius[256] - 128**4 - 2 * frobenius[128] + 2 * 64**4) == rep.epi
