"""Built-in problem definitions for the CLI and the test batteries.

Presets are compiled in: configuration files may override scalar data
(nu, bounds) but not the coefficient functions, whose constants are scalars.
"""
from __future__ import annotations

import numpy as np

from .pde import ProblemSpec


def _flagship() -> ProblemSpec:
    """Bilinear control of a monotone quartic reaction on the unit square.

    State equation: -Laplace(y) + y^3|y| + 2y - 100 sin(2 pi x1) sin(pi x2)
    + u y = 0 with homogeneous Neumann data, split into the reaction
    r(x, y) = y^3|y| + 2y and the x-only source
    f(x) = 100 sin(2 pi x1) sin(pi x2), a = r - f; tracking target
    y_d = -64 x1 (1-x1) x2 (1-x2); nu = 0.05; bounds [-1, 1].
    """
    # Plain products, not ``**``: numpy's pow is slow and takes different
    # paths for negative and positive bases, which breaks the exact oddness
    # of y^3|y| in the last bit.
    def reaction(x, y):
        return y * y * y * np.abs(y) + 2.0 * y

    def source(x):
        return 100.0 * np.sin(2.0 * np.pi * x[..., 0]) * \
            np.sin(np.pi * x[..., 1])

    def nonlinearity_dy(x, y):
        a = np.abs(y)
        return 4.0 * (a * a * a) + 2.0

    def nonlinearity_dyy(x, y):
        return 12.0 * y * np.abs(y)

    def target(x):
        return -64.0 * x[..., 0] * (1.0 - x[..., 0]) * \
            x[..., 1] * (1.0 - x[..., 1])

    return ProblemSpec(
        reaction=reaction,
        source=source,
        nonlinearity_dy=nonlinearity_dy,
        nonlinearity_dyy=nonlinearity_dyy,
        reaction_floor=lambda x: 2.0,
        boundary_flux=lambda x: 0.0,
        nu=0.05,
        alpha=-1.0,
        beta=1.0,
        objective=lambda x, y: 0.5 * (y - target(x)) ** 2,
        objective_dy=lambda x, y: y - target(x),
        objective_dyy=lambda x, y: 1.0,
        name="paper-sec6",
    )


def _tikhonov_only() -> ProblemSpec:
    """Flagship state equation with a zero tracking term.

    The unique optimal control is zero (pure Tikhonov cost).
    """
    def zero(x, y):
        return 0.0

    return _flagship().with_overrides(
        objective=zero, objective_dy=zero, objective_dyy=zero,
        name="tikhonov-only")


def _manufactured_constant() -> ProblemSpec:
    """Linear reaction with constant exact solution y = 1 at u = 0.

    -Laplace(y) + (y - 1) = 0 with zero Neumann data, the reaction y and
    the constant source 1; the constant one is an exact member of the
    discrete space, so every level solves it to round-off.  The tracking
    target is the same constant, which makes the zero control optimal
    with a vanishing adjoint.
    """
    return ProblemSpec(
        reaction=lambda x, y: y,
        source=lambda x: 1.0,
        nonlinearity_dy=lambda x, y: 1.0,
        nonlinearity_dyy=lambda x, y: 0.0,
        reaction_floor=lambda x: 1.0,
        boundary_flux=lambda x: 0.0,
        nu=0.05,
        alpha=-0.5,
        beta=0.5,
        objective=lambda x, y: 0.5 * (y - 1.0) ** 2,
        objective_dy=lambda x, y: y - 1.0,
        objective_dyy=lambda x, y: 1.0,
        name="manufactured-constant",
    )


_BUILDERS = {
    "paper-sec6": _flagship,
    "tikhonov-only": _tikhonov_only,
    "manufactured-constant": _manufactured_constant,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))


def get_preset(name: str) -> ProblemSpec:
    """Named problem definition; raises KeyError for unknown names."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; "
                       f"available: {', '.join(PRESET_NAMES)}") from None
