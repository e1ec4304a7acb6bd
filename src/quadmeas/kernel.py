"""Indirect-measurement framework: outcome grids, reduction-operator
families, probability-operator densities and tabulated outcome densities.

A measurement with continuous outcome x is described here by a family of
reduction operators Omega(x) acting on the system mode.  The probability
operator density is pi(x) = Omega(x)^dag Omega(x); outcome statistics follow
from p(x) = Tr[rho pi(x)], and the conditional post-measurement state is
Omega(x) rho Omega(x)^dag / p(x).  Continuous x is discretized on a uniform
grid with trapezoid weights.

The von Neumann target, a quadrature projector smeared by a Gaussian of
width Delta, is exact to rounding at each outcome for every Delta and
cutoff: each of its elements is a polynomial times a Gaussian in the
quadrature, which the cutoff-node Gauss rule of fock._gauss_rule
integrates exactly, with no working space (vn_target_family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridRangeError,
    ParameterError,
    ZeroProbabilityError,
)
from .fock import _gauss_rule, _hermite_functions, guard_level


@dataclass(frozen=True)
class OutcomeGrid:
    """Uniform grid of measurement outcomes with trapezoid quadrature."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.shape[0] < 2:
            raise ParameterError("outcome grid needs at least 2 points")
        steps = np.diff(pts)
        if steps[0] <= 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ParameterError("outcome grid must be uniformly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_spec(cls, spec: str) -> "OutcomeGrid":
        """Parse a "min:max:step" grid specification."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(
                f"grid spec must be 'min:max:step', got {spec!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise ParameterError(f"non-numeric grid spec {spec!r}") from None
        return cls.from_range(lo, hi, step)

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "OutcomeGrid":
        if step <= 0:
            raise ParameterError(f"grid step must be > 0, got {step}")
        if hi <= lo:
            raise ParameterError(f"grid needs max > min, got [{lo}, {hi}]")
        n = int(round((hi - lo) / step)) + 1
        if n < 2:
            raise ParameterError("grid spans less than one step")
        return cls(lo + step * np.arange(n))

    @property
    def step(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def x_min(self) -> float:
        return float(self.points[0])

    @property
    def x_max(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return self.points.shape[0]

    def weights(self) -> np.ndarray:
        w = np.full(len(self), self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def widened(self, pad: float) -> "OutcomeGrid":
        """New grid with the same step, extended by ``pad`` on both sides
        (rounded up to whole steps)."""
        extra = int(math.ceil(pad / self.step))
        lo = self.x_min - extra * self.step
        return OutcomeGrid(lo + self.step * np.arange(len(self) + 2 * extra))


@dataclass(frozen=True)
class ReductionOperatorFamily:
    """x-indexed family of reduction operators on the system mode.

    ``operators`` has shape (len(grid), cutoff, cutoff);  ``origin``
    records how the family was produced (raw-interaction | compensated |
    analytic-target), purely as provenance for reports.
    """

    grid: OutcomeGrid
    operators: np.ndarray
    origin: str = "raw-interaction"
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] != len(self.grid) \
                or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatchError(
                f"family shape {ops.shape} does not match grid of "
                f"{len(self.grid)} points")
        object.__setattr__(self, "operators", ops)

    @property
    def cutoff(self) -> int:
        return self.operators.shape[1]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.operators[i]

    def pom(self) -> "PomDensity":
        ops = self.operators
        mats = ops.conj().transpose(0, 2, 1) @ ops
        return PomDensity(self.grid, mats, self.warnings)

    def completeness_defect(self, block: Optional[int] = None) -> float:
        """Max elementwise deviation of sum_i w_i Omega^dag Omega from the
        identity, restricted to the leading ``block`` Fock levels (defaults
        to the guard level)."""
        b = guard_level(self.cutoff) if block is None else block
        w = self.grid.weights()
        acc = np.einsum("x,xmn,xmk->nk", w, self.operators.conj(),
                        self.operators, optimize=True)
        return float(np.max(np.abs(acc[:b, :b] - np.eye(self.cutoff)[:b, :b])))


@dataclass(frozen=True)
class PomDensity:
    """Probability-operator density pi(x) on the grid: positive matrices
    whose weighted sum resolves the identity."""

    grid: OutcomeGrid
    matrices: np.ndarray
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[0] != len(self.grid) or m.shape[1] != m.shape[2]:
            raise DimensionMismatchError(
                f"POM density shape {m.shape} does not match the grid")
        object.__setattr__(self, "matrices", m)

    @property
    def cutoff(self) -> int:
        return self.matrices.shape[1]

    def completeness_defect(self, block: Optional[int] = None) -> float:
        b = guard_level(self.cutoff) if block is None else block
        acc = np.tensordot(self.grid.weights(), self.matrices, axes=(0, 0))
        return float(np.max(np.abs(acc[:b, :b] - np.eye(self.cutoff)[:b, :b])))


@dataclass(frozen=True)
class OutcomeDensity:
    """Tabulated probability density of the measurement outcome."""

    grid: OutcomeGrid
    values: np.ndarray
    clip_defect: float = 0.0
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.grid),):
            raise DimensionMismatchError(
                f"density length {v.shape} does not match the grid")
        object.__setattr__(self, "values", v)

    def normalization(self) -> float:
        return float(self.grid.weights() @ self.values)

    def normalization_defect(self) -> float:
        return abs(1.0 - self.normalization())

    def mean(self) -> float:
        w = self.grid.weights()
        return float((w * self.values) @ self.grid.points / (w @ self.values))

    def variance(self) -> float:
        w = self.grid.weights()
        mass = w @ self.values
        m = (w * self.values) @ self.grid.points / mass
        return float((w * self.values) @ (self.grid.points - m) ** 2 / mass)


def _cdf_rows(values: np.ndarray, step: float) -> np.ndarray:
    """The cumulative distribution at the grid points of each row of
    densities tabulated on a grid of spacing ``step``: the trapezoid-rule
    CDF of the values clipped at zero, normalized to end at exactly 1."""
    v = np.clip(values, 0.0, None)
    c = np.zeros_like(v)
    np.cumsum(0.5 * step * (v[..., 1:] + v[..., :-1]), axis=-1,
              out=c[..., 1:])
    total = c[..., -1:]
    if np.any(total <= 0):
        raise ZeroProbabilityError("density carries no probability mass")
    return c / total


# ---------------------------------------------------------------------------
# constructions


def vn_target_family(delta: float, grid: OutcomeGrid, cutoff: int,
                     phase: float = 0.0) -> ReductionOperatorFamily:
    """Ideal Gaussian quadrature-projector family of r.m.s. width delta:

        Omega(x) = (2 pi delta^2)^{-1/4} exp[-(x - x_phase)^2 / (4 delta^2)]

    exact to rounding for every delta and cutoff.  With k = 1/(4 delta^2),
    a = 2 + k and beta = sqrt(2/a), the element

        <m|Omega_0(x)|n> = (2 pi delta^2)^{-1/4}
                           int chi_m(y) chi_n(y) e^{-k(x - y)^2} dy

    has, with y = kx/a + beta z, an integrand that is a polynomial of degree
    m + n <= 2 cutoff - 2 in z times e^{-2z^2}, so the cutoff-node Gauss
    rule (lam_l, W_l) of that weight (fock._gauss_rule) integrates it
    exactly:

        <m|Omega_0(x)|n> = (2 pi delta^2)^{-1/4} beta
                           sum_l W_l e^{-k(x - y_l)^2} chi_m(y_l) chi_n(y_l)

    at the nodes y_l = kx/a + beta lam_l, one batched product over the
    grid.  The phase enters as the element phase e^{i(m-n) phase}.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError(f"kernel width delta must be a finite number "
                             f"> 0, got {delta}")
    k = 0.25 / (delta * delta)
    a = 2.0 + k
    beta = math.sqrt(2.0 / a)
    lam, w = _gauss_rule(cutoff)
    xs = grid.points[:, None]
    y = (k / a) * xs + beta * lam
    f = (2.0 * math.pi * delta * delta) ** -0.25 * beta * w \
        * np.exp(-k * (xs - y) ** 2)
    # (cutoff, X, L) level-major, then (X, cutoff, L)
    chi = _hermite_functions(y.ravel(), cutoff).T.reshape(
        (cutoff,) + y.shape).transpose(1, 0, 2)
    ops = (chi * f[:, None, :]) @ chi.transpose(0, 2, 1)
    if phase != 0.0:
        ph = np.exp(1j * phase * np.arange(cutoff))
        ops = ph[:, None] * ops * ph.conj()
    return ReductionOperatorFamily(grid, ops, "analytic-target")


def widen_grid_for_density(density_fn: Callable[[np.ndarray], np.ndarray],
                           grid: OutcomeGrid, edge_tolerance: float = 1e-8,
                           max_widenings: int = 40
                           ) -> Tuple[OutcomeGrid, np.ndarray]:
    """Extend the grid (same step) until the density at both edges falls
    below edge_tolerance * peak.  density_fn maps a point array to density
    values.  Returns the grid and the density values evaluated on it, so
    callers need not evaluate them again."""
    g = grid
    for _ in range(max_widenings):
        vals = np.asarray(density_fn(g.points), dtype=float)
        peak = float(np.max(vals))
        if peak <= 0 or max(vals[0], vals[-1]) <= edge_tolerance * peak:
            return g, vals
        g = g.widened(0.25 * (g.x_max - g.x_min))
    raise GridRangeError(
        f"density edges still above {edge_tolerance} of peak after "
        f"{max_widenings} widenings")
