"""Indirect-measurement framework: outcome grids, reduction-operator
families, probability-operator densities, Born densities, state reduction.

A measurement with continuous outcome x is described here by a family of
reduction operators Omega(x) acting on the system mode.  The probability
operator density is pi(x) = Omega(x)^dag Omega(x); outcome statistics follow
from p(x) = Tr[rho pi(x)], and the conditional post-measurement state is
Omega(x) rho Omega(x)^dag / p(x).  Continuous x is discretized on a uniform
grid with trapezoid weights.
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
    guard_level,
    quadrature_eigenvector_matrix,
    quadrature_spectrum,
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
        v = np.clip(self.values, 0.0, None)
        inc = 0.5 * self.grid.step * (v[1:] + v[:-1])
        c = np.concatenate([[0.0], np.cumsum(inc)])
        total = c[-1]
        if total <= 0:
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


def _working_size(cutoff: int, margin: float) -> int:
    return max(int(math.ceil(margin * cutoff)), cutoff)


def _vn_kernel(delta: float) -> Callable[[float, np.ndarray], np.ndarray]:
    """The target's kernel (2 pi delta^2)^{-1/4} exp[-(x - lam)^2 / (4
    delta^2)] as a function of outcome and eigenvalue (broadcasting)."""
    norm = (2.0 * math.pi * delta * delta) ** -0.25
    return lambda x, evals: norm * np.exp(-((x - evals) ** 2)
                                          / (4.0 * delta * delta))


def spectral_kernel_family(kernel_fn: Callable[[float, np.ndarray], np.ndarray],
                           grid: OutcomeGrid, cutoff: int, phase: float = 0.0,
                           margin: float = 2.5, origin: str = "analytic-target",
                           warnings: Tuple[str, ...] = (),
                           ) -> ReductionOperatorFamily:
    """Family Omega(x) = k(x, x_phase) for a scalar kernel function, built by
    spectral calculus on the quadrature operator at an enlarged working
    cutoff (margin * cutoff) and truncated back.  ``kernel_fn(x, evals)``
    returns the kernel values at outcome x over the eigenvalue array."""
    evals, vecs = quadrature_spectrum(_working_size(cutoff, margin), phase)
    t = vecs[:cutoff, :]
    ops = np.empty((len(grid), cutoff, cutoff), dtype=complex)
    for i, x in enumerate(grid.points):
        ops[i] = (t * np.asarray(kernel_fn(x, evals))) @ t.conj().T
    return ReductionOperatorFamily(grid, ops, origin, warnings)


def vn_target_family(delta: float, grid: OutcomeGrid, cutoff: int,
                     phase: float = 0.0, margin: float = 2.5,
                     ) -> ReductionOperatorFamily:
    """Ideal Gaussian quadrature-projector family of r.m.s. width delta:

        Omega(x) = (2 pi delta^2)^{-1/4} exp[-(x - x_phase)^2 / (4 delta^2)]

    built by spectral calculus on the quadrature operator.  The operator
    function is evaluated at an enlarged working cutoff (margin * cutoff) and
    truncated, because the truncated quadrature's eigenvalue spacing
    ~pi/(2 sqrt(N)) must resolve delta; a warning is attached when it barely
    does.

    Note on completeness sums: summing Omega^dag Omega over a grid probes
    every eigenvalue of the working-cutoff quadrature, whose spectrum
    reaches roughly +-sqrt(working_cutoff/2).  Eigenvectors near that
    spectral edge leak weakly into low Fock levels, so a grid that stops
    short of the edge shows an O(1e-3) completeness defect even though the
    family is accurate for central outcomes.  Integrate over a grid covering
    the working spectrum (plus a few delta) to see the true quadrature-level
    defect.
    """
    if delta <= 0:
        raise ParameterError(f"kernel width delta must be > 0, got {delta}")
    n_work = _working_size(cutoff, margin)
    warnings: Tuple[str, ...] = ()
    if grid.step > delta:
        # Fine for pointwise evaluation; integrals over this grid undersample.
        warnings += (
            f"grid step {grid.step:.3g} exceeds the kernel width {delta:.3g}; "
            "sums over this grid undersample the outcome continuum",)
    spacing = math.pi / (2.0 * math.sqrt(n_work))
    if delta < spacing:
        warnings += (
            f"kernel width {delta:.3g} below the eigenvalue spacing "
            f"{spacing:.3g} of the working cutoff {n_work}; enlarge margin",)
    return spectral_kernel_family(_vn_kernel(delta), grid, cutoff, phase,
                                  margin, warnings=warnings)


def _vn_target_completeness_defect(delta: float, grid: OutcomeGrid,
                                   cutoff: int, block: int,
                                   margin: float = 2.5) -> float:
    """``vn_target_family(delta, grid, cutoff, phase, margin)
    .completeness_defect(block)`` from the spectrum alone, for every phase.

    With t the leading cutoff rows of the x_0 eigenvectors and F[x, l] =
    k(x, lam_l) real, Omega(x) = t diag(F[x]) t^T is symmetric, so

        sum_x w_x Omega(x)^dag Omega(x) = t [(t^T t) o (F^T diag(w) F)] t^T,

    an n_work^2 Gram contraction in place of the (len(grid), cutoff,
    cutoff) family.  The phase conjugates that sum by a diagonal unitary,
    which leaves the moduli of its deviation from the identity as they
    are."""
    evals, vecs = quadrature_spectrum(_working_size(cutoff, margin))
    t = vecs[:cutoff]
    f = _vn_kernel(delta)(grid.points[:, None], evals[None, :])
    gram = (f.T * grid.weights()) @ f
    acc = t[:block] @ ((t.T @ t) * gram) @ t[:block].T
    return float(np.max(np.abs(acc - np.eye(len(acc)))))


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
