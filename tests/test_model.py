"""Instance/scheme domain types: validation, posteriors, scheme algebra."""

import pickle
from fractions import Fraction

import pytest

from combisig.errors import InstanceFormatError, ZeroMassSignal
from combisig.model import (
    Instance,
    PathGraph,
    Posterior,
    Sense,
    SignalingScheme,
    Uniform,
    UtilitySpec,
    deterministic_scheme,
    expected_value,
    posterior,
    signal_mass,
)

F = Fraction


def small_instance(sense=Sense.MAX, constraint=None):
    return Instance(
        state_names=("lo", "hi"),
        prior=(F(1, 3), F(2, 3)),
        element_names=("x", "y"),
        sender=UtilitySpec.from_linear([[1, 0], [0, 1]]),
        receiver=UtilitySpec.from_linear([[2, 1], [1, 3]]),
        constraint=constraint or Uniform(1),
        sense=sense,
    )


def test_records_compare_hash_print_and_refuse_assignment():
    """``model.Record`` behaves as the frozen dataclasses it replaced: equal
    fields make equal, equally hashed records; ``repr`` names every field;
    pickling re-runs the constructor; assignment and deletion raise."""
    inst, twin = small_instance(), small_instance()
    assert inst == twin and hash(inst) == hash(twin) and inst is not twin
    assert inst != small_instance(constraint=Uniform(2)) and Uniform(1) != (1,)
    assert repr(Uniform(2)) == "Uniform(k=2)"
    assert repr(PathGraph(3, ((0, 1),), 0, 1)) == "PathGraph(num_vertices=3, edges=((0, 1),), source=0, sink=1)"
    assert pickle.loads(pickle.dumps(inst)) == inst
    scheme = deterministic_scheme(2, (0,))
    assert pickle.loads(pickle.dumps(scheme)) == scheme
    with pytest.raises(AttributeError):
        inst.prior = (F(1, 2), F(1, 2))
    with pytest.raises(AttributeError):
        del scheme.phi
    with pytest.raises(AttributeError):
        scheme.extra = 1
    assert hash(scheme) == hash(deterministic_scheme(2, (0,)))  # stored as tuples, not as a dict


def test_prior_must_sum_to_one():
    with pytest.raises(InstanceFormatError):
        Instance(
            state_names=("a", "b"),
            prior=(F(1, 2), F(1, 3)),
            element_names=("x",),
            sender=UtilitySpec.from_linear([[1], [1]]),
            receiver=UtilitySpec.from_linear([[1], [1]]),
            constraint=Uniform(1),
        )


def test_prior_must_be_positive():
    with pytest.raises(InstanceFormatError):
        Instance(
            state_names=("a", "b"),
            prior=(F(1), F(0)),
            element_names=("x",),
            sender=UtilitySpec.from_linear([[1], [1]]),
            receiver=UtilitySpec.from_linear([[1], [1]]),
            constraint=Uniform(1),
        )


def test_duplicate_names_rejected():
    with pytest.raises(InstanceFormatError):
        Instance(
            state_names=("a", "a"),
            prior=(F(1, 2), F(1, 2)),
            element_names=("x",),
            sender=UtilitySpec.from_linear([[1], [1]]),
            receiver=UtilitySpec.from_linear([[1], [1]]),
            constraint=Uniform(1),
        )


def test_negative_utility_rejected():
    with pytest.raises(InstanceFormatError):
        UtilitySpec.from_linear([[1, -1]])


def test_tabular_requires_empty_action():
    with pytest.raises(InstanceFormatError):
        UtilitySpec.from_tabular([{(0,): F(1)}])


def test_min_requires_path():
    with pytest.raises(InstanceFormatError):
        small_instance(sense=Sense.MIN)


def test_min_with_path_ok():
    spec = PathGraph(3, ((0, 1), (1, 2)), 0, 2)
    inst = Instance(
        state_names=("lo", "hi"),
        prior=(F(1, 2), F(1, 2)),
        element_names=("e0", "e1"),
        sender=UtilitySpec.from_linear([[1, 0], [0, 1]]),
        receiver=UtilitySpec.from_linear([[2, 1], [1, 3]]),
        constraint=spec,
        sense=Sense.MIN,
    )
    assert inst.sense is Sense.MIN


def test_posterior_validation():
    with pytest.raises(InstanceFormatError):
        Posterior((F(1, 2), F(1, 3)))
    with pytest.raises(InstanceFormatError):
        Posterior((F(3, 2), F(-1, 2)))
    Posterior((F(1), F(0)))  # boundary beliefs are fine


def test_scheme_from_phi_drops_zeros_and_checks_mass():
    phi = {(0, (0,)): F(1), (1, (0,)): F(1, 2), (1, (1,)): F(1, 2), (0, (1,)): F(0)}
    scheme = SignalingScheme.from_phi(2, phi)
    assert (0, (1,)) not in scheme.phi
    assert scheme.support == ((0,), (1,))
    with pytest.raises(InstanceFormatError):
        SignalingScheme.from_phi(2, {(0, (0,)): F(1, 2), (1, (0,)): F(1)})


def test_deterministic_scheme_and_posterior():
    inst = small_instance()
    scheme = deterministic_scheme(2, (1,))
    assert signal_mass(inst, scheme, (1,)) == 1
    xi = posterior(inst, scheme, (1,))
    assert xi.xi == inst.prior  # uninformative recommendation keeps the prior


def test_posterior_bayes_rule():
    inst = small_instance()
    scheme = SignalingScheme.from_phi(
        2,
        {
            (0, (0,)): F(1),
            (1, (0,)): F(1, 4),
            (1, (1,)): F(3, 4),
        },
    )
    mass0 = signal_mass(inst, scheme, (0,))
    assert mass0 == F(1, 3) + F(2, 3) * F(1, 4)
    xi = posterior(inst, scheme, (0,))
    assert xi.xi[0] == F(1, 3) / mass0
    assert sum(xi.xi) == 1
    with pytest.raises(ZeroMassSignal):
        posterior(inst, scheme, (0, 1))


def test_expected_value_linear_and_tabular():
    xi = Posterior((F(1, 2), F(1, 2)))
    lin = UtilitySpec.from_linear([[2, 4], [0, 8]])
    assert expected_value(lin, xi, (0, 1)) == F(1, 2) * 6 + F(1, 2) * 8
    tab = UtilitySpec.from_tabular(
        [
            {(): F(0), (0,): F(1), (0, 1): F(5)},
            {(): F(0), (0,): F(2), (0, 1): F(3)},
        ]
    )
    assert expected_value(tab, xi, (0, 1)) == 4
