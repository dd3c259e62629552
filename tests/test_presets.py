"""Coefficient functions of the built-in presets."""
import numpy as np
import pytest

from ocfem import PRESET_NAMES, get_preset


def _flagship_closed_form(x, y):
    return y * y * y * np.abs(y) + 2.0 * y - \
        100.0 * np.sin(2.0 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


# a(x, y) of each preset written as one expression: the reference that
# reaction(x, y) - source(x) must reproduce bit for bit.
CLOSED_FORMS = {
    "paper-sec6": _flagship_closed_form,
    "tikhonov-only": _flagship_closed_form,
    "manufactured-constant": lambda x, y: y - 1.0,
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_nonlinearity_is_bitwise_the_closed_form(name):
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1.0, (10_000, 2))
    y = 3.0 * rng.standard_normal(10_000)
    assert np.array_equal(get_preset(name).nonlinearity(x, y),
                          CLOSED_FORMS[name](x, y))


@pytest.fixture(scope="module")
def flagship_samples():
    """Seeded states of both signs at points with x1 = 0, where the
    flagship's sine source is exactly zero."""
    rng = np.random.default_rng(20)
    y = 3.0 * rng.standard_normal(100_000)
    x = np.column_stack([np.zeros_like(y), rng.uniform(0.0, 1.0, y.size)])
    return get_preset("paper-sec6"), x, y


def test_flagship_reaction_is_exactly_odd(flagship_samples):
    spec, x, y = flagship_samples
    assert np.any(y < 0.0) and np.any(y > 0.0)
    assert np.array_equal(spec.nonlinearity(x, -y), -spec.nonlinearity(x, y))
    assert np.array_equal(spec.nonlinearity_dy(x, -y),
                          spec.nonlinearity_dy(x, y))


def _central_difference(f, x, y):
    h = 1e-4 * np.maximum(np.abs(y), 1.0)
    return (f(x, y + h) - f(x, y - h)) / (2.0 * h)


def test_flagship_derivatives_match_central_differences(flagship_samples):
    spec, x, y = flagship_samples
    for f, df in ((spec.nonlinearity, spec.nonlinearity_dy),
                  (spec.nonlinearity_dy, spec.nonlinearity_dyy)):
        exact = df(x, y)
        error = np.abs(_central_difference(f, x, y) - exact)
        assert np.all(error <= 1e-6 * np.maximum(np.abs(exact), 1.0))
