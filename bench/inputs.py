"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed and nothing else that varies between runs, so one seed always yields
the same inputs.  The solver only ever sees the generated arrays and
parameters.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# Cosine modes per direction of a generated control and the standard
# deviation of its leading coefficient; higher modes decay like
# 1 / (1 + k + l).  At this amplitude every level-8 control tried took 5
# Newton steps, so the seed changes which linear solves fall back to CG
# rather than the step count.
CONTROL_MODES = 4
CONTROL_AMPLITUDE = 0.2

# Parameter box of the nu-sweep draws.
NU_RANGE = (0.01, 0.5)
ALPHA_RANGE = (-1.5, -0.25)
BETA_RANGE = (0.25, 1.5)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) so that adding a stream
    never shifts the values of another."""
    salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([int(seed), salt])


def cosine_control_values(rng, points, alpha, beta,
                          modes=CONTROL_MODES,
                          amplitude=CONTROL_AMPLITUDE) -> np.ndarray:
    """Smooth random cosine series sampled at ``points`` and clipped to
    ``[alpha, beta]``.

    ``u(x) = sum_{k,l < modes} c_kl cos(k pi x1) cos(l pi x2)`` with
    ``c_kl ~ N(0, 1) * amplitude / (1 + k + l)``.
    """
    k = np.arange(modes)
    coef = rng.standard_normal((modes, modes))
    coef *= amplitude / (1.0 + k[:, None] + k[None, :])
    cx = np.cos(np.pi * points[:, 0, None] * k[None, :])   # (m, modes)
    cy = np.cos(np.pi * points[:, 1, None] * k[None, :])
    vals = np.einsum("mk,kl,ml->m", cx, coef, cy)
    return np.clip(vals, alpha, beta)


def parameter_draws(rng, count: int) -> list:
    """``count`` nu-sweep variants by Latin hypercube sampling.

    Each marginal keeps its law (nu log-uniform, alpha and beta uniform in
    their boxes), but every parameter takes exactly one value in each of
    ``count`` equal strata of its range.  The batch then covers the box
    evenly, so the summed solve time varies far less between seeds than
    with independent draws.
    """
    def strata(lo, hi):
        u = (rng.permutation(count) + rng.uniform(size=count)) / count
        return lo + (hi - lo) * u

    log_nu = strata(math.log(NU_RANGE[0]), math.log(NU_RANGE[1]))
    alpha = strata(*ALPHA_RANGE)
    beta = strata(*BETA_RANGE)
    return [{"nu": float(math.exp(n)), "alpha": float(a), "beta": float(b)}
            for n, a, b in zip(log_nu, alpha, beta)]


def digest(*arrays) -> str:
    """Short content hash of generated inputs, recorded with each result."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]
