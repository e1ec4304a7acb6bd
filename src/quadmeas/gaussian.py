"""Exact mean/covariance calculus for Gaussian states: the correctness oracle.

Everything here is closed-form linear algebra on first and second moments —
no Fock truncation anywhere — so it serves as the independent reference
against which the truncated-basis pipeline is checked.

Conventions (same as the Fock side): per mode the phase-space coordinates
are the pair (x, y) = (x_0, x_{pi/2}) with vacuum covariance I/4 and
[x, y] = i/2; for several modes coordinates are concatenated mode by mode,
system first: (x_sys, y_sys, X_probe, Y_probe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DegenerateCovarianceError,
    DimensionMismatchError,
    ParameterError,
)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal J with [[0, 1], [-1, 0]] per mode.

    The canonical commutators read [r_i, r_j] = (i/2) J_ij in this package's
    scaling, so the uncertainty relation is cov + (i/4) J >= 0.
    """
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = j
    return out


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian state of one or more modes."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape[0] % 2 != 0 or mean.shape[0] == 0:
            raise DimensionMismatchError(
                f"mean must hold (x, y) pairs, got length {mean.shape[0]}")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionMismatchError(
                f"cov shape {cov.shape} does not match mean length {mean.shape[0]}")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ParameterError("covariance matrix must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2

    def mode(self, k: int) -> "GaussianState":
        sl = slice(2 * k, 2 * k + 2)
        return GaussianState(self.mean[sl], self.cov[sl, sl])


@dataclass(frozen=True)
class SymplecticTransform:
    """Affine phase-space map: mean -> S mean + d, cov -> S cov S^T."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=float)
        d = np.asarray(self.shift, dtype=float).ravel()
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != d.shape[0]:
            raise DimensionMismatchError(
                f"incompatible transform shapes {s.shape} / {d.shape}")
        j = symplectic_form(s.shape[0] // 2)
        if np.max(np.abs(s @ j @ s.T - j)) > 1e-12:
            raise ParameterError("matrix does not preserve the symplectic form")
        object.__setattr__(self, "matrix", s)
        object.__setattr__(self, "shift", d)

    @property
    def n_modes(self) -> int:
        return self.shift.shape[0] // 2

    def apply(self, state: GaussianState) -> GaussianState:
        if state.mean.shape[0] != self.shift.shape[0]:
            raise DimensionMismatchError(
                f"transform on {self.n_modes} mode(s) applied to "
                f"{state.n_modes}-mode state")
        return GaussianState(self.matrix @ state.mean + self.shift,
                             self.matrix @ state.cov @ self.matrix.T)


# ---------------------------------------------------------------------------
# state factories


def vacuum_gaussian(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), 0.25 * np.eye(2 * n_modes))


def coherent_gaussian(alpha: complex) -> GaussianState:
    """Mean (Re alpha, Im alpha), vacuum covariance."""
    return GaussianState(np.array([alpha.real, alpha.imag]),
                         0.25 * np.eye(2))


def squeezed_vacuum_gaussian(sigma: float, phase: float = 0.0) -> GaussianState:
    """Variance sigma/4 along x_phase, 1/(4 sigma) along the conjugate."""
    if sigma <= 0:
        raise ParameterError(f"variance scale sigma must be > 0, got {sigma}")
    r = rotation_matrix(phase)
    cov = r @ np.diag([sigma / 4.0, 1.0 / (4.0 * sigma)]) @ r.T
    return GaussianState(np.zeros(2), cov)


def tensor_product(a: GaussianState, b: GaussianState) -> GaussianState:
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.shape[0], mean.shape[0]))
    na = a.mean.shape[0]
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# symplectic images of the elementary unitaries


def rotation_matrix(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeeze_symplectic(r: float, phase: float = 0.0) -> SymplecticTransform:
    """Image of S(r, phase): stretches x_phase by e^r, shrinks the
    conjugate by e^-r."""
    rot = rotation_matrix(phase)
    core = np.diag([math.exp(r), math.exp(-r)])
    return SymplecticTransform(rot @ core @ rot.T, np.zeros(2))


def displacement_transform(alpha: complex) -> SymplecticTransform:
    """Image of D(alpha): pure shift of the means by (Re alpha, Im alpha)."""
    return SymplecticTransform(np.eye(2), np.array([alpha.real, alpha.imag]))


def beam_splitter_symplectic(eta: float) -> SymplecticTransform:
    """Two-mode mixer matching the Fock-side convention
    U_dag a U = sqrt(eta) a - sqrt(1-eta) b, ordering (x_s, y_s, X_p, Y_p)."""
    if not 0.0 < eta < 1.0:
        raise ParameterError(
            f"transmissivity must lie strictly inside (0, 1), got {eta}")
    t, rfl = math.sqrt(eta), math.sqrt(1.0 - eta)
    s = np.zeros((4, 4))
    s[:2, :2] = t * np.eye(2)
    s[:2, 2:] = -rfl * np.eye(2)
    s[2:, :2] = rfl * np.eye(2)
    s[2:, 2:] = t * np.eye(2)
    return SymplecticTransform(s, np.zeros(4))


# ---------------------------------------------------------------------------
# measurement: marginals and conditioning


def _quadrature_selector(n_modes: int, mode: int, phase: float) -> np.ndarray:
    e = np.zeros(2 * n_modes)
    e[2 * mode] = math.cos(phase)
    e[2 * mode + 1] = math.sin(phase)
    return e


def quadrature_statistics(state: GaussianState, mode: int = 0,
                          phase: float = 0.0) -> Tuple[float, float]:
    """(mean, variance) of x_phase on the chosen mode."""
    e = _quadrature_selector(state.n_modes, mode, phase)
    return float(e @ state.mean), float(e @ state.cov @ e)


def normal_pdf(x, mean: float, var: float):
    x = np.asarray(x, dtype=float)
    out = np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return out if out.ndim else float(out)


def condition_on_quadrature(state: GaussianState, mode: int, phase: float,
                            outcome: float):
    """Ideal homodyne of x_phase on one mode of a multi-mode Gaussian.

    Returns (density value at the outcome, conditioned GaussianState of the
    remaining modes).  The conditioned covariance is outcome-independent —
    a Gaussian fact that callers may assert exactly.
    """
    e = _quadrature_selector(state.n_modes, mode, phase)
    v = float(e @ state.cov @ e)
    if v < 1e-12:
        raise DegenerateCovarianceError(
            f"measured quadrature variance {v:.3e} is singular")
    m0 = float(e @ state.mean)
    c = state.cov @ e
    mean_full = state.mean + c * (outcome - m0) / v
    cov_full = state.cov - np.outer(c, c) / v
    keep = [i for i in range(2 * state.n_modes)
            if i not in (2 * mode, 2 * mode + 1)]
    reduced = GaussianState(mean_full[keep], cov_full[np.ix_(keep, keep)])
    return normal_pdf(outcome, m0, v), reduced


# ---------------------------------------------------------------------------
# closed-form back-action of a width-Delta Gaussian measurement kernel


def conjugate_variance_after(prior_conjugate_var: float, delta: float) -> float:
    """Back-action: variance of the conjugate quadrature after the
    measurement, for a pure Gaussian input with conjugate variance u.

    The posterior is a pure minimum-uncertainty Gaussian with measured-axis
    variance v' = (v^-1 + Delta^-2)^-1, hence conjugate variance 1/(16 v')
    when the input was pure (v u = 1/16).
    """
    v = 1.0 / (16.0 * prior_conjugate_var)
    v_post = 1.0 / (1.0 / v + 1.0 / (delta * delta))
    return 1.0 / (16.0 * v_post)
