"""Convergence to an exact optimality system with a real active set.

Every other order in the suite compares consecutive levels of the solver's
own output.  Here the continuous solution is known: on the unit square
with g = 0, reaction y^3|y| + 2y, nu = 0.05 and [alpha, beta] = [-1, 1],

    y = 1 + cos(pi x1) cos(pi x2) / 2,
    phi = 0.1 (cos(pi x1) cos(2 pi x2) + 0.3 cos(pi x2)),
    u = clamp(y phi / nu),

solve the state equation with the source pi^2 cos cos + r(y) + u y and the
adjoint equation with L = (y - y_d)^2 / 2,
y_d = y - (-Laplace(phi) + (4|y|^3 + 2 + u) phi).  Both fields have zero
normal derivative, and u is active on about a third of the square.  Levels
2..6 are solved by ``study.continuation``; errors are L2 norms by the
volume rule against the exact fields.  The bounds below are stated in
README and fixed.
"""
import math

import numpy as np
import pytest

from ocfem import ProblemSpec, barycenters, fem, integrate
from ocfem.study import continuation

NU, ALPHA, BETA = 0.05, -1.0, 1.0
PI = math.pi


def y_bar(x):
    return 1.0 + 0.5 * np.cos(PI * x[..., 0]) * np.cos(PI * x[..., 1])


def phi_bar(x):
    return 0.1 * (np.cos(PI * x[..., 0]) * np.cos(2.0 * PI * x[..., 1])
                  + 0.3 * np.cos(PI * x[..., 1]))


def u_bar(x):
    return np.clip(y_bar(x) * phi_bar(x) / NU, ALPHA, BETA)


def reaction(x, y):
    return y * y * y * np.abs(y) + 2.0 * y


def reaction_dy(x, y):
    a = np.abs(y)
    return 4.0 * (a * a * a) + 2.0


def source(x):
    y = y_bar(x)
    minus_laplace_y = PI * PI * np.cos(PI * x[..., 0]) * np.cos(PI * x[..., 1])
    return minus_laplace_y + reaction(x, y) + u_bar(x) * y


def target(x):
    y = y_bar(x)
    minus_laplace_phi = 0.1 * PI * PI * (
        5.0 * np.cos(PI * x[..., 0]) * np.cos(2.0 * PI * x[..., 1])
        + 0.3 * np.cos(PI * x[..., 1]))
    return y - (minus_laplace_phi + (reaction_dy(x, y) + u_bar(x))
                * phi_bar(x))


SPEC = ProblemSpec(
    reaction=reaction,
    source=source,
    nonlinearity_dy=reaction_dy,
    nonlinearity_dyy=lambda x, y: 12.0 * y * np.abs(y),
    reaction_floor=lambda x: np.full(x.shape[:-1], 2.0),
    boundary_flux=lambda x: np.zeros(x.shape[:-1]),
    nu=NU, alpha=ALPHA, beta=BETA,
    objective=lambda x, y: 0.5 * (y - target(x)) ** 2,
    objective_dy=lambda x, y: y - target(x),
    objective_dyy=lambda x, y: np.ones(np.broadcast(x[..., 0], y).shape),
    name="manufactured-active")


def l2_error(mesh, approx, exact):
    """Volume-rule L2 norm of quadrature values minus an exact field."""
    diff = approx - exact(fem.quadrature_points(mesh))
    return math.sqrt(integrate(mesh, diff * diff))


def mixed_measure(mesh):
    """|T1| of the exact control: elements whose vertex and barycenter
    samples are partly active, under ``mixed_elements``' rule."""
    samples = np.column_stack([u_bar(mesh.vertices[mesh.triangles]),
                               u_bar(barycenters(mesh))])
    tol = 1e-6 * (BETA - ALPHA)
    active = (np.abs(samples - ALPHA) <= tol) | \
        (np.abs(samples - BETA) <= tol)
    mixed = active.any(axis=1) & (~active).any(axis=1)
    return float(mesh.areas[mixed].sum())


@pytest.fixture(scope="module")
def rows():
    """Per level 2..6: kkt, the four errors and |T1|."""
    out = {}
    for sol, _ in continuation(SPEC, 2, 6):
        mesh = sol.control.mesh
        y_h = sol.state.at_quadrature()
        phi_h = sol.adjoint.at_quadrature()
        out[mesh.level] = {
            "kkt": sol.kkt_residual,
            "u": l2_error(mesh, sol.control.values[:, None], u_bar),
            "y": l2_error(mesh, y_h, y_bar),
            "phi": l2_error(mesh, phi_h, phi_bar),
            "u_post": l2_error(mesh, SPEC.clamp(y_h * phi_h / NU), u_bar),
            "t1": mixed_measure(mesh),
        }
    return out


def test_every_level_meets_the_kkt_stop(rows):
    assert sorted(rows) == [2, 3, 4, 5, 6]
    assert all(row["kkt"] <= 1e-9 for row in rows.values())


@pytest.mark.parametrize("field, low, high", [
    ("u", 0.9, 1.1),
    ("y", 1.9, 2.1),
    ("phi", 1.9, 2.1),
    ("u_post", 1.9, 2.1),
])
@pytest.mark.parametrize("level", [4, 5, 6])
def test_order_against_the_exact_solution(rows, field, low, high, level):
    order = math.log2(rows[level - 1][field] / rows[level][field])
    assert low <= order <= high


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_mixed_measure_halves_per_level(rows, level):
    assert 0.45 <= rows[level]["t1"] / rows[level - 1]["t1"] <= 0.55
