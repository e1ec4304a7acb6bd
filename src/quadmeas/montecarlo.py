"""Stochastic measurement runs.

Draws outcomes from tabulated Born densities by exact inverse-CDF sampling,
applies the matching reduction operator (with ideal or finite-local-oscillator
feedback), and aggregates repeatability statistics for the
measure/reduce/measure-again experiment.

Sampling contract: a (seed, stream) pair fully determines every drawn number.
Outcomes are snapped to the engine's outcome grid, so the sampled measurement
is exactly the discretized one whose density, POM and reduction family the
rest of the package manipulates.  Each run takes one uniform for its first
draw, one more per resample, then one for its second outcome, so
``TrialEngine.trials(rng, n)`` equals n ``TrialEngine.trial(rng)`` calls.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import erfinv

from .errors import (
    GridRangeError,
    InfeasibleFeedbackError,
    ParameterError,
    ZeroProbabilityError,
)
from .fock import (DensityOperator, StateVector, _state_matrix,
                   make_quadrature, vacuum_state)
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
    "sample_outcomes",
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


def _inverse_cdf(density: OutcomeDensity, u: np.ndarray) -> np.ndarray:
    """Map uniforms through the exact inverse CDF of the piecewise-linear
    density tabulated on the grid (quadratic inside each bin)."""
    defect = density.normalization_defect()
    if defect > 1e-6:
        raise ParameterError(
            f"sampling needs a normalized density; normalization is off by "
            f"{defect:.3e}")
    pts = density.grid.points
    vals = np.clip(density.values, 0.0, None)
    cdf = density.cdf_nodes()
    j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(pts) - 2)
    mass = cdf[j + 1] - cdf[j]
    s = np.where(mass > 0, (u - cdf[j]) / np.where(mass > 0, mass, 1.0), 0.0)
    f0, f1 = vals[j], vals[j + 1]
    # solve (2 f0 t + (f1 - f0) t^2) / (f0 + f1) = s for t in [0, 1], in
    # the root form that does not cancel when f1 is close to f0
    disc = np.sqrt((1.0 - s) * f0 * f0 + s * f1 * f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = s * (f0 + f1) / (disc + f0)
    t = np.clip(np.where(np.isfinite(t), t, s), 0.0, 1.0)
    return pts[j] + t * density.grid.step


def sample_outcomes(density: OutcomeDensity, n: int, seed) -> np.ndarray:
    """Draw ``n`` outcomes distributed exactly as the piecewise-linear
    density tabulated on the grid."""
    if n < 0:
        raise ParameterError(f"sample count must be >= 0, got {n}")
    return _inverse_cdf(density, _as_generator(seed).random(n))


def _nearest_index(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Index of the sorted grid point nearest each x, a tie going to the
    lower index: ``np.argmin(np.abs(points - x))`` for every x at once."""
    hi = np.clip(np.searchsorted(points, xs), 1, len(points) - 1)
    low_is_closer = np.abs(points[hi - 1] - xs) <= np.abs(points[hi] - xs)
    return hi - low_is_closer


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
    rho = np.asarray(_state_matrix(state), dtype=complex)
    warnings = getattr(state, "warnings", ())
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


@dataclass(eq=False)
class _Conditional:
    """Per-outcome cache entry: post state, moments, second-outcome density."""

    post: object
    mean: float
    variance: float
    density: OutcomeDensity


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
        self._input_warnings = state.warnings
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

    def _moments(self, state) -> Tuple[float, float]:
        if isinstance(state, DensityOperator):
            xm = self._xq @ state.matrix
            mean = float(np.trace(xm).real)
            second = float(np.trace(self._xq @ xm).real)
        else:
            mean = float(np.vdot(state, self._xq @ state).real)
            second = float(np.linalg.norm(self._xq @ state) ** 2)
        return mean, second - mean * mean

    def _entry(self, post) -> _Conditional:
        """Cache entry of a normalized pure vector or DensityOperator."""
        mean, var = self._moments(post)
        dens = quadrature_density(
            StateVector(post) if isinstance(post, np.ndarray) else post,
            self.second_grid, self.params.phi)
        norm = dens.normalization()
        if norm <= 0:
            raise ZeroProbabilityError("conditional density carries no mass")
        return _Conditional(post, mean, var,
                            OutcomeDensity(dens.grid, dens.values / norm))

    def _conditional(self, index: int) -> Optional[_Conditional]:
        if index in self._cache:
            return self._cache[index]
        x = float(self.grid.points[index])
        finite_lo = self.feedback.mode == "finite-lo"
        if self._family is not None:
            vec = self._family.operators[index] @ self._psi
        elif finite_lo:
            # the oscillator channel replaces the unitary feedback stage;
            # it acts at working size, like every builder stage, and only
            # the back-squeezed state is truncated to the cutoff
            stage_mask = StageMask(self.mask.pre_squeeze, False, False)
            om = self._builder.operator(x, stage_mask, workspace=True)
            vec = om[:, :len(self._psi)] @ self._psi
        else:
            vec = self._builder.operator(x, self.mask) @ self._psi
        p = float(np.linalg.norm(vec) ** 2)
        entry = None
        if p >= _PROBABILITY_FLOOR:
            post = vec / math.sqrt(p)
            if finite_lo:
                rho = finite_lo_displacement(
                    post, feedback_displacement(x, self.params.eta,
                                                self.params.phi)
                    if self.mask.feedback else 0.0,
                    self.feedback.beta)
                mat = rho.matrix
                if self.mask.back_squeeze:
                    back = self._builder._back_matrix(self.mask.pre_squeeze)
                    mat = back @ mat @ back.conj().T
                c = self.params.cutoff
                mat = mat[:c, :c]
                post = DensityOperator(mat / np.trace(mat).real, rho.warnings)
            entry = self._entry(post)
        self._cache[index] = entry
        return entry

    def _identity_conditional(self) -> _Conditional:
        if self._identity_entry is None:
            self._identity_entry = self._entry(self._psi)
        return self._identity_entry

    @property
    def warnings(self) -> Tuple[str, ...]:
        """Warnings the constructors attached to what this engine used: the
        input state, the builder's probe (or the kernel family) and the
        conditional states formed so far."""
        source = self._family if self._family is not None else self._builder
        posts = tuple(w for e in self._cache.values() if e is not None
                      for w in getattr(e.post, "warnings", ()))
        return self._input_warnings + source.warnings + posts

    def post_state(self, index: int):
        """Normalized post-measurement state at a grid index (pure vector
        for ideal feedback, density operator for finite-lo feedback)."""
        entry = self._conditional(index)
        if entry is None:
            raise ZeroProbabilityError(
                f"outcome {self.grid.points[index]} has no probability mass")
        return entry.post

    # -- sampling -------------------------------------------------------

    def trials(self, rng, n: int, want_second: bool = False,
               identity_control: bool = False) -> List[TrialRecord]:
        """The records of ``n`` successive ``trial`` calls on ``rng``, drawn
        as one batch that leaves ``rng`` where those calls leave it."""
        rng = _as_generator(rng)
        pts = self.grid.points
        u = rng.random(n * (2 if want_second else 1))
        first = _nearest_index(pts, _inverse_cdf(self.density, u)).tolist()
        u, runs, pos = u.tolist(), [], 0
        for _ in range(n):
            for resamples in range(_MAX_RESAMPLES + 1):
                index, pos = first[pos], pos + 1
                entry = self._identity_conditional() if identity_control \
                    else self._conditional(index)
                if entry is not None:
                    break
                extra = rng.random(1)  # keeps later runs on their uniforms
                u += extra.tolist()
                first += _nearest_index(
                    pts, _inverse_cdf(self.density, extra)).tolist()
            else:
                raise ZeroProbabilityError(
                    f"no outcome with probability mass found in "
                    f"{_MAX_RESAMPLES + 1} draws (grid artifact)")
            runs.append((index, entry, resamples, pos))  # pos: 2nd uniform
            pos += want_second
        second = {}
        if want_second:
            groups = {}
            for i, run in enumerate(runs):
                groups.setdefault(run[1], []).append(i)
            for entry, rows in groups.items():
                xs = _inverse_cdf(entry.density,
                                  np.array([u[runs[i][3]] for i in rows]))
                second.update(zip(rows, xs.tolist()))
        mode = "identity-control" if identity_control else self.feedback.mode
        return [TrialRecord(outcome=float(pts[index]), post_mean=entry.mean,
                            post_variance=entry.variance,
                            second_outcome=second.get(i), feedback_mode=mode,
                            resamples=resamples)
                for i, (index, entry, resamples, _) in enumerate(runs)]

    def trial(self, rng, want_second: bool = False,
              identity_control: bool = False) -> TrialRecord:
        """One run: draw an outcome (redrawing outcomes without probability
        mass), reduce the input state (``identity_control`` leaves it as
        is), and with ``want_second`` measure the same quadrature again."""
        return self.trials(rng, 1, want_second, identity_control)[0]


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
    recs = eng.trials(seed, n_trials, want_second=True,
                      identity_control=identity_control)
    return summarize_repeatability([r.outcome for r in recs],
                                   [r.second_outcome for r in recs],
                                   confidence)
