"""Engines against each other and against brute force on unfiltered
instances with utilities 0..3, where ties and zero values are common:
uniform, partition and graphic matroids (max sense) and layered and grid
paths (min sense).  Hypothesis runs derandomized with a capped number of
examples, so every run draws the same instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from combisig import cce, persuasion
from combisig.model import Sense
from helpers import brute_cce_value, grid_path_instance, rand_instance


@st.composite
def tied_instances(draw):
    family = draw(st.sampled_from(("uniform", "partition", "graphic", "layered", "grid")))
    rng = draw(st.randoms(use_true_random=False))
    states = draw(st.integers(2, 3))
    if family == "grid":
        return grid_path_instance(rng, 2, draw(st.integers(2, 3)), states, lo=0, hi=3)
    if family == "layered":
        return rand_instance(rng, states, draw(st.integers(2, 6)), sense=Sense.MIN, lo=0, hi=3)
    return rand_instance(rng, states, draw(st.integers(2, 5)), family, lo=0, hi=3)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(tied_instances())
def test_engines_agree_on_tied_instances(inst):
    relaxed = cce.solve_cce_exact(cce.make_view(inst)).sender_value
    assert relaxed == brute_cce_value(inst)
    full = persuasion.solve_full(inst).sender_value
    _, base = persuasion.uninformative_scheme(inst)
    if inst.sense is Sense.MAX:
        assert relaxed >= full >= persuasion.solve_reduced(inst).sender_value >= base
    else:
        assert relaxed <= full <= base
