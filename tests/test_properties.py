"""Property tests on random short presentations: the orbit-counted engine
against the brute-force oracle over small catalog targets."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solvquot.counting import epi_count, hom_count
from solvquot.groups import CATALOG_SPECS, builtin_group
from solvquot.oracle import brute_epi, brute_hom
from solvquot.presentations import Presentation

TOWERS = {}
SMALL_SPECS = [spec for spec in CATALOG_SPECS if builtin_group(spec).order <= 24]


def tower(spec):
    if spec not in TOWERS:
        TOWERS[spec] = builtin_group(spec)
    return TOWERS[spec]


@st.composite
def presentations(draw):
    n = draw(st.integers(2, 3))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=8),
                             min_size=1, max_size=3))
    return Presentation(tuple("xyz"[:n]), tuple(tuple(r) for r in relators))


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
