"""Metamorphic relations of the engines: ``solve_full``, ``solve_cce_exact``,
``uninformative_scheme`` and, on clean matroid instances, ``solve_reduced``.

* Scaling every receiver utility by c > 0 changes no preference, so the
  value and the scheme stay.
* Scaling every sender utility by c > 0 multiplies the value by c.
* Permuting the states together with the prior, or relabelling the
  elements together with the constraint, renames the problem, so the
  value stays.

Derandomized: fixed seeds, fractional c, mixed denominators."""

import random
from fractions import Fraction

import pytest

from combisig import cce, persuasion
from combisig.model import Graphic, Instance, Partition, PathGraph, Sense, UtilitySpec
from helpers import MIXED_DENOMINATORS, rand_clean_instance, rand_instance, replace_fields

F = Fraction


def _scaled(util: UtilitySpec, c: Fraction) -> UtilitySpec:
    return UtilitySpec.from_linear([[c * v for v in row] for row in util.linear])


def _permute_states(inst: Instance, perm: list[int]) -> Instance:
    """State k of the result is state perm[k] of ``inst``."""

    def rows(util):
        return UtilitySpec.from_linear([util.linear[t] for t in perm])

    return replace_fields(
        inst,
        state_names=tuple(inst.state_names[t] for t in perm),
        prior=tuple(inst.prior[t] for t in perm),
        sender=rows(inst.sender),
        receiver=rows(inst.receiver),
    )


def _relabel_elements(inst: Instance, sigma: list[int]) -> Instance:
    """Element e of ``inst`` becomes element sigma[e], in the utilities and
    in the constraint."""
    inverse = sorted(range(len(sigma)), key=sigma.__getitem__)

    def rows(util):
        return UtilitySpec.from_linear([[row[inverse[e]] for e in range(len(row))] for row in util.linear])

    constraint = inst.constraint
    if isinstance(constraint, Partition):
        constraint = Partition(tuple(tuple(sorted(sigma[e] for e in block)) for block in constraint.blocks), constraint.caps)
    elif isinstance(constraint, (Graphic, PathGraph)):
        constraint = replace_fields(constraint, edges=tuple(constraint.edges[inverse[e]] for e in range(len(sigma))))
    return replace_fields(
        inst,
        element_names=tuple(inst.element_names[inverse[e]] for e in range(len(sigma))),
        sender=rows(inst.sender),
        receiver=rows(inst.receiver),
        constraint=constraint,
    )


def _outcomes(inst: Instance, clean: bool) -> dict:
    """(value, scheme) per engine that takes the instance."""
    results = {"full": persuasion.solve_full(inst), "cce": cce.solve_cce_exact(cce.make_view(inst))}
    if clean:
        results["reduced"] = persuasion.solve_reduced(inst)
    outcomes = {name: (r.sender_value, r.scheme) for name, r in results.items()}
    scheme, value = persuasion.uninformative_scheme(inst)
    outcomes["uninformative"] = (value, scheme)
    return outcomes


def _values(outcomes: dict, c: Fraction = F(1)) -> dict:
    return {name: c * value for name, (value, _) in outcomes.items()}


def _corpus():
    """Clean matroid instances (every engine) and layered paths (all but
    ``reduced``), with mixed denominators."""
    rng = random.Random("metamorphic")
    for kind in ("uniform", "partition", "graphic"):
        for _ in range(6):
            D = rng.randint(2, 3)
            yield rand_clean_instance(rng, D, rng.randint(3, 5), kind, dens=MIXED_DENOMINATORS), True
    for _ in range(6):
        yield rand_instance(rng, rng.randint(2, 3), 6, sense=Sense.MIN, dens=MIXED_DENOMINATORS), False


CORPUS = list(_corpus())


@pytest.mark.parametrize("case", range(len(CORPUS)))
def test_engines_obey_scaling_and_renaming(case):
    inst, clean = CORPUS[case]
    rng = random.Random(f"metamorphic/{case}")
    base = _outcomes(inst, clean)
    c = F(rng.randint(1, 9), rng.randint(2, 9))

    receiver_scaled = _outcomes(replace_fields(inst, receiver=_scaled(inst.receiver, c)), clean)
    assert receiver_scaled == base

    sender_scaled = _outcomes(replace_fields(inst, sender=_scaled(inst.sender, c)), clean)
    assert _values(sender_scaled) == _values(base, c)

    perm = rng.sample(range(inst.num_states), inst.num_states)
    assert _values(_outcomes(_permute_states(inst, perm), clean)) == _values(base)

    sigma = rng.sample(range(inst.num_elements), inst.num_elements)
    assert _values(_outcomes(_relabel_elements(inst, sigma), clean)) == _values(base)
