"""Indirect-measurement framework: outcome grids, reduction-operator
families, probability-operator densities, Born densities, state reduction.

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
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridRangeError,
    ParameterError,
    ZeroProbabilityError,
)
from .fock import (
    DensityOperator,
    Operator,
    StateVector,
    _gauss_rule,
    _hermite_functions,
    guard_level,
    quadrature_eigenvector_matrix,
)


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

    def covers(self, center: float, spread: float) -> bool:
        return self.x_min <= center - spread and self.x_max >= center + spread

    def widened(self, pad: float) -> "OutcomeGrid":
        """New grid with the same step, extended by ``pad`` on both sides
        (rounded up to whole steps)."""
        extra = int(math.ceil(pad / self.step))
        lo = self.x_min - extra * self.step
        return OutcomeGrid(lo + self.step * np.arange(len(self) + 2 * extra))

    def spec_string(self) -> str:
        return f"{self.x_min:g}:{self.x_max:g}:{self.step:g}"


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, Operator):
        return op.matrix
    return np.asarray(op)


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

    def at_outcome(self, x: float) -> np.ndarray:
        """Family member at the grid point nearest to x."""
        i = int(np.argmin(np.abs(self.grid.points - x)))
        if abs(self.grid.points[i] - x) > 0.5 * self.grid.step + 1e-12:
            raise GridRangeError(f"outcome {x} lies outside the grid")
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

    def min_eigenvalue(self) -> float:
        return float(min(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
                         for m in self.matrices))

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

    def cdf_nodes(self) -> np.ndarray:
        """Cumulative distribution at the grid points (trapezoid rule),
        normalized to end at exactly 1."""
        return _cdf_rows(self.values, self.grid.step)


def _cdf_rows(values: np.ndarray, step: float) -> np.ndarray:
    """``OutcomeDensity.cdf_nodes`` of each row of densities tabulated on a
    grid of spacing ``step``: the trapezoid-rule CDF of the values clipped
    at zero, normalized to end at exactly 1."""
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


def born_density(state, pom: Union[PomDensity, ReductionOperatorFamily],
                 edge_tolerance: Optional[float] = 1e-8) -> OutcomeDensity:
    """Outcome density p(x) = Tr[rho pi(x)] on the grid.

    Negative values above -1e-10 (truncation noise) are clamped to zero with
    the total clamped mass recorded as ``clip_defect``.  If the density at
    either grid edge exceeds ``edge_tolerance`` relative to the peak, the
    grid does not cover the distribution and a GridRangeError is raised;
    pass ``edge_tolerance=None`` for intentionally non-integrable inputs.
    """
    if isinstance(pom, ReductionOperatorFamily):
        pom = pom.pom()
    if isinstance(state, StateVector):
        psi = state.amplitudes
        vals = np.einsum("n,xnk,k->x", psi.conj(), pom.matrices, psi).real
    else:
        rho = state.matrix if isinstance(state, DensityOperator) else np.asarray(state)
        vals = np.einsum("xnk,kn->x", pom.matrices, rho).real
    neg = vals < 0
    clip = float(-np.sum(vals[neg]))
    if np.any(vals < -1e-10):
        raise ParameterError(
            f"POM density produced negativity {np.min(vals):.3e} beyond "
            "the truncation-noise threshold")
    vals = np.where(neg, 0.0, vals)
    if edge_tolerance is not None:
        peak = float(np.max(vals))
        if peak > 0 and max(vals[0], vals[-1]) > edge_tolerance * peak:
            raise GridRangeError(
                f"grid [{pom.grid.x_min}, {pom.grid.x_max}] too narrow: edge "
                f"density {max(vals[0], vals[-1]):.3e} vs peak {peak:.3e}")
    return OutcomeDensity(pom.grid, vals, clip, pom.warnings)


def quadrature_density(state, grid: OutcomeGrid,
                       phase: float = 0.0) -> OutcomeDensity:
    """Density of an ideal (projective) quadrature measurement:
    p(y) = <y|rho|y> with delta-normalized |y>."""
    if isinstance(state, StateVector):
        chi = quadrature_eigenvector_matrix(grid.points, state.cutoff, phase)
        vals = np.abs(chi.conj() @ state.amplitudes) ** 2
    else:
        rho = state.matrix if isinstance(state, DensityOperator) else np.asarray(state)
        chi = quadrature_eigenvector_matrix(grid.points, rho.shape[0], phase)
        vals = np.einsum("xn,nm,xm->x", chi.conj(), rho, chi).real
        vals = np.clip(vals, 0.0, None)
    return OutcomeDensity(grid, vals)


def reduce_state(state, omega, floor: float = 1e-14):
    """Conditional state update for one outcome.

    Returns (probability density value, normalized post-measurement state of
    the same kind as the input).  Outcomes with density below ``floor`` are
    undefined and raise ZeroProbabilityError rather than being renormalized.
    """
    om = _as_matrix(omega)
    if isinstance(state, StateVector):
        post = om @ state.amplitudes
        p = float(np.linalg.norm(post) ** 2)
        if p <= floor:
            raise ZeroProbabilityError(
                f"outcome density {p:.3e} below floor {floor:.1e}")
        return p, StateVector(post / math.sqrt(p), state.warnings)
    rho = state.matrix if isinstance(state, DensityOperator) else np.asarray(state)
    post = om @ rho @ om.conj().T
    p = float(np.trace(post).real)
    if p <= floor:
        raise ZeroProbabilityError(
            f"outcome density {p:.3e} below floor {floor:.1e}")
    return p, DensityOperator(post / p,
                              state.warnings if isinstance(state, DensityOperator) else ())


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


def fitted_kernel_width(density: OutcomeDensity,
                        input_variance: float) -> float:
    """r.m.s. width of the measurement kernel inferred from moments: the
    outcome density of a Gaussian kernel is the ideal density convolved with
    N(0, delta^2), so delta^2 = var(p) - var(input)."""
    excess = density.variance() - input_variance
    if excess < 0:
        raise ParameterError(
            f"outcome variance {density.variance():.6g} below the input "
            f"variance {input_variance:.6g}: no Gaussian kernel fits")
    return math.sqrt(excess)
