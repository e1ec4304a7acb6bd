"""Stochastic measurement runs.

Draws outcomes from tabulated Born densities by exact inverse-CDF sampling,
applies the matching reduction operator (with ideal or finite-local-oscillator
feedback), and aggregates repeatability statistics for the
measure/reduce/measure-again experiment.

Sampling contract: a (seed, stream) pair fully determines every drawn number.
Outcomes are snapped to the engine's outcome grid, so the sampled measurement
is exactly the discretized one whose density, POM and reduction family the
rest of the package manipulates.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np
from scipy.special import erfinv

from .errors import (
    GridRangeError,
    InfeasibleFeedbackError,
    ParameterError,
    ZeroProbabilityError,
)
from .fock import DensityOperator, StateVector, make_quadrature, vacuum_state
from .kernel import (
    OutcomeDensity,
    OutcomeGrid,
    quadrature_density,
    widen_grid_for_density,
)
from .scheme import (
    FeedbackSpec,
    SchemeFamilyBuilder,
    SchemeParams,
    StageMask,
    _faithful_displacement,
    feedback_displacement,
)

__all__ = [
    "RngSeed",
    "TrialRecord",
    "RepeatabilityStats",
    "TrialEngine",
    "sample_outcome",
    "sample_outcomes",
    "run_trial",
    "repeatability_experiment",
    "summarize_repeatability",
    "finite_lo_displacement",
    "ks_against_density",
    "ks_critical_value",
]

_PROBABILITY_FLOOR = 1e-14
_MAX_RESAMPLES = 10


@dataclass(frozen=True)
class RngSeed:
    """Counter-based random-stream handle.

    Identical (seed, stream) pairs reproduce bit-identical sample sequences;
    distinct stream labels give statistically independent streams for the
    same seed.  The generator algorithm backing the contract is recorded in
    ``algorithm`` so run metadata can name it.
    """

    seed: int
    stream: str = "main"

    algorithm: ClassVar[str] = "philox4x64"

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or isinstance(
                self.seed, bool):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ParameterError(
                f"seed must fit in 64 unsigned bits, got {self.seed}")

    def generator(self) -> np.random.Generator:
        tag = int.from_bytes(
            hashlib.blake2s(self.stream.encode("utf-8"),
                            digest_size=8).digest(), "little")
        return np.random.Generator(np.random.Philox(key=[int(self.seed), tag]))

    def child(self, stream: str) -> "RngSeed":
        """Derived seed for an independent sub-stream."""
        return RngSeed(int(self.seed), f"{self.stream}/{stream}")


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return RngSeed(int(seed)).generator()
    raise ParameterError(
        f"expected an RngSeed, integer seed or Generator, got {seed!r}")


# ---------------------------------------------------------------------------
# exact inverse-CDF sampling of tabulated densities


def _check_normalized(density: OutcomeDensity, tol: float = 1e-6) -> None:
    defect = density.normalization_defect()
    if defect > tol:
        raise ParameterError(
            f"sampling needs a normalized density; normalization is off by "
            f"{defect:.3e}")


def sample_outcomes(density: OutcomeDensity, n: int, seed) -> np.ndarray:
    """Draw ``n`` outcomes distributed exactly as the piecewise-linear
    density tabulated on the grid (quadratic inverse CDF inside each bin)."""
    if n < 0:
        raise ParameterError(f"sample count must be >= 0, got {n}")
    _check_normalized(density)
    rng = _as_generator(seed)
    pts = density.grid.points
    vals = np.clip(density.values, 0.0, None)
    cdf = density.cdf_nodes()
    u = rng.random(n)
    j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(pts) - 2)
    mass = cdf[j + 1] - cdf[j]
    s = np.where(mass > 0, (u - cdf[j]) / np.where(mass > 0, mass, 1.0), 0.0)
    f0, f1 = vals[j], vals[j + 1]
    rise = f1 - f0
    tot = f0 + f1
    # solve (2 f0 t + rise t^2) / (f0 + f1) = s for t in [0, 1]
    disc = np.sqrt(np.maximum(f0 * f0 + s * rise * np.where(tot > 0, tot, 1.0),
                              0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_quad = (disc - f0) / rise
    t = np.where(np.abs(rise) > 1e-300 * np.maximum(tot, 1.0), t_quad, s)
    t = np.clip(np.where(np.isfinite(t), t, s), 0.0, 1.0)
    return pts[j] + t * density.grid.step


def sample_outcome(density: OutcomeDensity, seed) -> float:
    """Single draw; see sample_outcomes for the distribution contract."""
    return float(sample_outcomes(density, 1, seed)[0])


def _cdf_at(density: OutcomeDensity, xs: np.ndarray) -> np.ndarray:
    """Exact CDF of the piecewise-linear density at arbitrary points."""
    pts = density.grid.points
    h = density.grid.step
    vals = np.clip(density.values, 0.0, None)
    nodes = density.cdf_nodes()
    total = 0.5 * h * float(np.sum(vals[1:] + vals[:-1]))
    xs = np.asarray(xs, dtype=float)
    j = np.clip(np.searchsorted(pts, xs, side="right") - 1, 0, len(pts) - 2)
    t = np.clip((xs - pts[j]) / h, 0.0, 1.0)
    inner = 0.5 * h * t * (2.0 * vals[j] + (vals[j + 1] - vals[j]) * t) / total
    out = nodes[j] + inner
    out[xs <= pts[0]] = 0.0
    out[xs >= pts[-1]] = 1.0
    return out


def ks_against_density(samples: np.ndarray, density: OutcomeDensity) -> float:
    """One-sample Kolmogorov-Smirnov statistic of the samples against the
    tabulated density's own CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ParameterError("KS statistic needs at least one sample")
    f = _cdf_at(density, x)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value at significance alpha."""
    if n <= 0:
        raise ParameterError(f"sample count must be positive, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"significance must be in (0,1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


# ---------------------------------------------------------------------------
# finite-local-oscillator displacement channel


def _loss_channel(rho: np.ndarray, theta: float,
                  port_cutoff: int) -> Tuple[np.ndarray, float]:
    """Pure-loss channel of transmissivity theta with the reflected port
    truncated at port_cutoff lost quanta; returns (state, trace deficit)."""
    n = rho.shape[0]
    levels = np.arange(n)
    out = np.zeros_like(rho)
    root_theta_pow = theta ** (0.5 * levels)
    log_fact = np.cumsum(np.log(np.maximum(levels, 1)))
    for k in range(min(port_cutoff, n - 1) + 1):
        # <m|A_k|m+k> = sqrt(C(m+k, k)) theta^(m/2) (1-theta)^(k/2)
        m = levels[:n - k]
        log_binom = log_fact[m + k] - log_fact[m] - math.lgamma(k + 1)
        amp = np.exp(0.5 * log_binom) * root_theta_pow[m] \
            * (1.0 - theta) ** (0.5 * k)
        block = rho[k:, k:] * np.outer(amp, amp)
        out[:n - k, :n - k] += block
    deficit = float(abs(np.trace(rho).real - np.trace(out).real))
    return out, deficit


def finite_lo_displacement(state, target_amplitude: complex, beta: float,
                           port_cutoff: int = 12) -> DensityOperator:
    """Displace by mixing with a strong coherent local oscillator of
    amplitude ``beta`` at a beam splitter whose transmissivity theta solves
    |beta| sqrt(1-theta) = |target amplitude|, then trace out the oscillator
    port.  Converges to the ideal displacement as beta grows; the deviation
    is the residual loss (1-theta) acting on the state."""
    beta_mag = abs(complex(beta))
    if beta_mag <= 0:
        raise ParameterError(f"oscillator amplitude must be > 0, got {beta}")
    if isinstance(state, StateVector):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        warnings = state.warnings
    elif isinstance(state, DensityOperator):
        rho, warnings = state.matrix, state.warnings
    else:
        rho = np.asarray(state, dtype=complex)
        if rho.ndim == 1:
            rho = np.outer(rho, rho.conj())
        warnings = ()
    target = complex(target_amplitude)
    ratio = abs(target) / beta_mag
    if ratio >= 1.0:
        raise InfeasibleFeedbackError(
            f"requested amplitude {abs(target):.6g} exceeds what the "
            f"oscillator amplitude {beta_mag:.6g} can deliver")
    if target == 0:
        return DensityOperator(rho, warnings)
    theta = 1.0 - ratio * ratio
    lossy, deficit = _loss_channel(rho, theta, port_cutoff)
    if deficit > 1e-10:
        warnings = warnings + (
            f"finite-lo port truncation lost trace {deficit:.3e}",)
    disp = _faithful_displacement(target, rho.shape[0])
    return DensityOperator(disp @ lossy @ disp.conj().T, warnings)


# ---------------------------------------------------------------------------
# trial records and the reusable engine


@dataclass(frozen=True)
class TrialRecord:
    """One measurement run: the drawn outcome, the post-measurement state's
    working-quadrature moments, the optional second outcome of a
    repeatability run, and how feedback was applied."""

    outcome: float
    post_mean: float
    post_variance: float
    second_outcome: Optional[float]
    feedback_mode: str
    resamples: int = 0

    def __post_init__(self):
        for name in ("outcome", "post_mean", "post_variance"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"non-finite trial field {name}")
        if self.second_outcome is not None \
                and not math.isfinite(self.second_outcome):
            raise ParameterError("non-finite second outcome")


@dataclass(frozen=True)
class RepeatabilityStats:
    """Aggregate of measure/reduce/measure-again runs: spread of the second
    outcome around the first, and the regression of second on first."""

    n_trials: int
    diff_mean: float
    diff_variance: float
    slope: float
    confidence: float
    diff_mean_halfwidth: float
    diff_variance_halfwidth: float
    slope_halfwidth: float


class _Conditional:
    """Per-outcome cache entry: post state, its moments, second-outcome CDF."""

    __slots__ = ("probability", "post", "mean", "variance", "density")

    def __init__(self, probability, post, mean, variance, density):
        self.probability = probability
        self.post = post
        self.mean = mean
        self.variance = variance
        self.density = density


class TrialEngine:
    """Samples outcomes of one parameter set and applies the matching
    reduction, reusing the outcome density, the per-outcome reduction
    operators and the per-outcome conditional densities across trials.

    The first measurement is drawn from the Born density on a grid widened
    until its edges are negligible, then snapped to the nearest grid point;
    the recorded outcome is that grid value, so repeated runs sample exactly
    the discretized measurement.  The optional second measurement is an
    ideal quadrature measurement of the post state.

    ``kernel_family`` swaps the joint-dilation construction for an already
    materialized single-mode reduction family (normally the analytic
    Gaussian-kernel target, which the built scheme is verified to equal
    elsewhere).  That path reaches the large cutoffs a sharp kernel needs
    for its conditional states, which the two-mode dilation cannot; it
    supports ideal feedback only and must arrive on a grid that already
    covers the outcome distribution.
    """

    def __init__(self, params: SchemeParams,
                 feedback: Optional[FeedbackSpec] = None,
                 input_state: Optional[StateVector] = None,
                 mask: StageMask = StageMask(), margin: float = 2.5,
                 second_step: float = 0.02, kernel_family=None):
        self.params = params
        self.feedback = feedback if feedback is not None \
            else FeedbackSpec.ideal()
        self.mask = mask
        self._family = kernel_family
        if kernel_family is not None:
            if self.feedback.mode != "ideal":
                raise ParameterError(
                    "a materialized kernel family supports ideal feedback "
                    "only; use the dilation path for finite-lo runs")
            cutoff = kernel_family.cutoff
            self._builder = None
        else:
            cutoff = params.cutoff
            self._builder = SchemeFamilyBuilder(params, margin)
        state = input_state if input_state is not None \
            else vacuum_state(cutoff)
        psi = np.asarray(state.amplitudes, dtype=complex)
        if len(psi) != cutoff:
            raise ParameterError(
                f"input state cutoff {len(psi)} does not match the scheme "
                f"cutoff {cutoff}")
        self._psi = psi / np.linalg.norm(psi)
        if kernel_family is not None:
            self.grid = kernel_family.grid
            vals = np.linalg.norm(
                np.einsum("xmn,n->xm", kernel_family.operators, self._psi),
                axis=1) ** 2
            peak = float(np.max(vals))
            if peak > 0 and max(vals[0], vals[-1]) > 1e-8 * peak:
                raise GridRangeError(
                    "kernel family grid does not cover the outcome "
                    "distribution; build it on a wider grid")
        else:
            self.grid = widen_grid_for_density(
                lambda pts: self._builder.outcome_density_values(
                    self._psi, OutcomeGrid(pts), self.mask),
                params.grid)
            vals = self._builder.outcome_density_values(self._psi, self.grid,
                                                        self.mask)
        norm = 0.5 * self.grid.step * float(np.sum(vals[1:] + vals[:-1]))
        if norm <= 0:
            raise ZeroProbabilityError("outcome density carries no mass")
        # truncation leaves a small mass defect; renormalize for sampling
        # but keep the defect on record
        self.normalization_defect = abs(1.0 - norm)
        self.density = OutcomeDensity(self.grid, vals / norm)
        if self.feedback.mode == "finite-lo" and mask.feedback:
            self.feedback.validate_for(params, self.grid)
        self.second_grid = OutcomeGrid.from_range(
            self.grid.x_min, self.grid.x_max, second_step)
        self._xq = make_quadrature(cutoff, params.phi)
        self._cache: Dict[int, Optional[_Conditional]] = {}
        self._identity_entry: Optional[_Conditional] = None

    # -- conditional-state machinery ------------------------------------

    @staticmethod
    def _normalized(dens: OutcomeDensity) -> OutcomeDensity:
        norm = dens.normalization()
        if norm <= 0:
            raise ZeroProbabilityError(
                "conditional density carries no mass")
        return OutcomeDensity(dens.grid, dens.values / norm)

    def _moments(self, state) -> Tuple[float, float]:
        if isinstance(state, np.ndarray) and state.ndim == 1:
            mean = float(np.vdot(state, self._xq @ state).real)
            second = float(np.linalg.norm(self._xq @ state) ** 2)
        else:
            mat = state.matrix if isinstance(state, DensityOperator) else state
            mean = float(np.trace(self._xq @ mat).real)
            second = float(np.trace(self._xq @ (self._xq @ mat)).real)
        return mean, second - mean * mean

    def _conditional(self, index: int) -> Optional[_Conditional]:
        if index in self._cache:
            return self._cache[index]
        x = float(self.grid.points[index])
        entry: Optional[_Conditional]
        if self.feedback.mode == "ideal":
            om = self._family.operators[index] if self._family is not None \
                else self._builder.operator(x, self.mask)
            vec = om @ self._psi
            p = float(np.linalg.norm(vec) ** 2)
            if p < _PROBABILITY_FLOOR:
                entry = None
            else:
                post = vec / math.sqrt(p)
                mean, var = self._moments(post)
                dens = self._normalized(quadrature_density(
                    StateVector(post), self.second_grid, self.params.phi))
                entry = _Conditional(p, post, mean, var, dens)
        else:
            # the oscillator channel replaces the unitary feedback stage;
            # it acts at working size, like every builder stage, and only
            # the back-squeezed state is truncated to the cutoff
            stage_mask = StageMask(self.mask.pre_squeeze, False, False)
            om = self._builder.operator(x, stage_mask, workspace=True)
            vec = om[:, :len(self._psi)] @ self._psi
            p = float(np.linalg.norm(vec) ** 2)
            if p < _PROBABILITY_FLOOR:
                entry = None
            else:
                rho = finite_lo_displacement(
                    vec / math.sqrt(p),
                    feedback_displacement(x, self.params.eta,
                                          self.params.phi)
                    if self.mask.feedback else 0.0,
                    self.feedback.beta)
                mat = rho.matrix
                if self.mask.back_squeeze:
                    back = self._builder._back_matrix(self.mask.pre_squeeze)
                    mat = back @ mat @ back.conj().T
                c = self.params.cutoff
                mat = mat[:c, :c]
                rho = DensityOperator(mat / np.trace(mat).real, rho.warnings)
                mean, var = self._moments(rho)
                dens = self._normalized(quadrature_density(
                    rho, self.second_grid, self.params.phi))
                entry = _Conditional(p, rho, mean, var, dens)
        self._cache[index] = entry
        return entry

    def _identity_conditional(self) -> _Conditional:
        if self._identity_entry is None:
            mean, var = self._moments(self._psi)
            dens = self._normalized(quadrature_density(
                StateVector(self._psi), self.second_grid, self.params.phi))
            self._identity_entry = _Conditional(1.0, self._psi, mean, var,
                                                dens)
        return self._identity_entry

    def post_state(self, index: int):
        """Normalized post-measurement state at a grid index (pure vector
        for ideal feedback, density operator for finite-lo feedback)."""
        entry = self._conditional(index)
        if entry is None:
            raise ZeroProbabilityError(
                f"outcome {self.grid.points[index]} has no probability mass")
        return entry.post

    # -- sampling -------------------------------------------------------

    def trial(self, rng, want_second: bool = False,
              identity_control: bool = False,
              max_resamples: int = _MAX_RESAMPLES) -> TrialRecord:
        rng = _as_generator(rng)
        for attempt in range(max_resamples + 1):
            x_raw = sample_outcome(self.density, rng)
            index = int(np.argmin(np.abs(self.grid.points - x_raw)))
            if identity_control:
                entry = self._identity_conditional()
            else:
                entry = self._conditional(index)
            if entry is None:
                continue
            second = None
            if want_second:
                second = float(sample_outcomes(entry.density, 1, rng)[0])
            return TrialRecord(
                outcome=float(self.grid.points[index]),
                post_mean=entry.mean, post_variance=entry.variance,
                second_outcome=second,
                feedback_mode="identity-control" if identity_control
                else self.feedback.mode,
                resamples=attempt)
        raise ZeroProbabilityError(
            f"no outcome with probability mass found in "
            f"{max_resamples + 1} draws (grid artifact)")


def run_trial(params: SchemeParams, feedback: Optional[FeedbackSpec] = None,
              seed=0, engine: Optional[TrialEngine] = None,
              want_second: bool = False) -> TrialRecord:
    """One measurement run.  Pass an engine to amortize setup over many
    runs; otherwise one is built for this call."""
    eng = engine if engine is not None else TrialEngine(params, feedback)
    return eng.trial(_as_generator(seed), want_second=want_second)


# ---------------------------------------------------------------------------
# repeatability experiment


def summarize_repeatability(first, second,
                            confidence: float = 0.95) -> RepeatabilityStats:
    """Repeatability statistics of paired (first, second) outcome arrays:
    spread of (second - first) and the regression slope of second on first,
    with normal-approximation confidence half-widths."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    n = len(first)
    if len(second) != n:
        raise ParameterError(
            f"paired outcome arrays differ in length: {n} vs {len(second)}")
    if n < 100:
        raise ParameterError(
            f"repeatability statistics want n_trials >= 100, got {n}")
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0,1), got {confidence}")
    diff = second - first
    dmean = float(np.mean(diff))
    dvar = float(np.var(diff, ddof=1))
    x_center = first - np.mean(first)
    sxx = float(x_center @ x_center)
    if sxx <= 0:
        raise ZeroProbabilityError(
            "all first outcomes identical; slope undefined")
    slope = float(x_center @ (second - np.mean(second)) / sxx)
    resid = (second - np.mean(second)) - slope * x_center
    slope_se = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    z = math.sqrt(2.0) * float(erfinv(confidence))
    return RepeatabilityStats(
        n_trials=n, diff_mean=dmean, diff_variance=dvar, slope=slope,
        confidence=confidence,
        diff_mean_halfwidth=z * math.sqrt(dvar / n),
        diff_variance_halfwidth=z * dvar * math.sqrt(2.0 / (n - 1)),
        slope_halfwidth=z * slope_se)


def repeatability_experiment(params: SchemeParams, n_trials: int, seed,
                             feedback: Optional[FeedbackSpec] = None,
                             engine: Optional[TrialEngine] = None,
                             identity_control: bool = False,
                             confidence: float = 0.95) -> RepeatabilityStats:
    """Measure, reduce, then measure the same quadrature again, n_trials
    times; report the spread of (second - first) and the regression slope
    of second on first, with normal-approximation confidence half-widths."""
    if n_trials < 100:
        raise ParameterError(
            f"repeatability statistics want n_trials >= 100, got {n_trials}")
    eng = engine if engine is not None else TrialEngine(params, feedback)
    rng = _as_generator(seed)
    first = np.empty(n_trials)
    second = np.empty(n_trials)
    for i in range(n_trials):
        rec = eng.trial(rng, want_second=True,
                        identity_control=identity_control)
        first[i] = rec.outcome
        second[i] = rec.second_outcome
    return summarize_repeatability(first, second, confidence)
