"""Property tests on random short presentations: the orbit-counted engine
and the symmetric-group search against the brute-force oracle, and the
engine against the Hall identities over a subgroup lattice."""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solvquot.counting import epi_count, hom_count
from solvquot.groups import CATALOG_SPECS, FiniteGroupTable, builtin_group
from solvquot.lattice import hall_identities
from solvquot.oracle import brute_epi, brute_hom
from solvquot.presentations import Presentation
from solvquot.subgrowth import hom_count_symmetric

TOWERS = {}
SMALL_SPECS = [spec for spec in CATALOG_SPECS if builtin_group(spec).order <= 24]


def tower(spec):
    if spec not in TOWERS:
        TOWERS[spec] = builtin_group(spec)
    return TOWERS[spec]


@st.composite
def presentations(draw, max_gens=3):
    n = draw(st.integers(2, max_gens))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=8),
                             min_size=1, max_size=3))
    return Presentation(tuple("xyzw"[:n]), tuple(tuple(r) for r in relators))


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.sampled_from(SMALL_SPECS))
def test_counts_against_the_oracle(P, spec):
    T = tower(spec)
    rep = epi_count(P, T, with_hom=True)
    assert rep.hom == hom_count(P, T) == brute_hom(P, T.group).count
    assert rep.epi == brute_epi(P, T.group).count
    assert rep.epi <= rep.hom
    assert rep.epi % rep.aut == 0 and rep.delta * rep.aut == rep.epi


@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(presentations(), st.sampled_from(["S(3)", "D(8)", "Q(8)", "A(4)"]))
def test_hall_identities(P, spec):
    # |Hom(G, B)| = sum of |Epi(G, H)| over the subgroups H of B, and its
    # Moebius inversion, each count made by the engine on H's own tower
    rep = hall_identities(P, tower(spec).group)
    assert rep["hom_identity_holds"] and rep["epi_identity_holds"], rep


def symmetric_table(k):
    """S_k from the permutations of range(k), the identity first."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroupTable([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


SYMMETRIC = {k: symmetric_table(k) for k in (3, 4)}


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.sampled_from(sorted(SYMMETRIC)))
def test_symmetric_search_against_the_oracle(data, k):
    # four generators at k = 3 (6^4 tuples) reach the depths below the
    # centraliser-reduced second generator
    P = data.draw(presentations(4 if k == 3 else 3))
    assert hom_count_symmetric(P, k) == brute_hom(P, SYMMETRIC[k]).count
