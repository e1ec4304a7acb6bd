"""Stochastic measurement runs.

Draws outcomes from tabulated Born densities by exact inverse-CDF sampling,
applies the matching reduction (with ideal or finite-local-oscillator
feedback), and aggregates repeatability statistics for the
measure/reduce/measure-again experiment.

Sampling contract: a (seed, stream) pair fully determines every drawn number.
Outcomes are snapped to the engine's outcome grid, so the sampled measurement
is exactly the discretized one whose density, POM and reduction family the
rest of the package manipulates.  Each run takes one uniform for its first
draw, one more per resample, then one for its second outcome.
``TrialEngine.trials(rng, n)`` returns a ``TrialBatch``, the records of n runs
as columns: column by column it equals n successive ``trials(rng, 1)`` calls,
and it leaves ``rng`` where they leave it.
"""

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    InfeasibleFeedbackError,
    ParameterError,
    ZeroProbabilityError,
)
from .fock import (DensityOperator, StateVector, _state_matrix,
                   make_quadrature, quadrature_eigenvector_matrix,
                   vacuum_state)
from .kernel import (OutcomeDensity, OutcomeGrid, _cdf_rows,
                     widen_grid_for_density)
from .scheme import (
    FeedbackSpec,
    SchemeParams,
    StageMask,
    _check_margin,
    _squeeze_displace,
    backsqueeze_param,
    composed_density,
    composed_reductions,
    feedback_coefficient,
)

__all__ = [
    "RngSeed",
    "TrialBatch",
    "RepeatabilityStats",
    "TrialEngine",
    "summarize_repeatability",
    "finite_lo_displacement",
]

_PROBABILITY_FLOOR = 1e-14
_MAX_RESAMPLES = 10
_PORT_CUTOFF = 12  # lost quanta kept at the finite-lo oscillator's port


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


class _InverseCdf:
    """The exact inverse CDFs (quadratic inside each bin) of piecewise-linear
    densities tabulated on one shared grid, stacked as rows with their
    clipped values and CDF nodes computed once.  Calling it maps uniforms
    to outcomes, each through its entry of ``rows``, or all through the
    first row when ``rows`` is None."""

    def __init__(self, *densities: OutcomeDensity):
        grid = densities[0].grid
        raw = np.array([d.values for d in densities])
        defect = float(np.max(np.abs(1.0 - raw @ grid.weights())))
        if defect > 1e-6:
            raise ParameterError(
                f"sampling needs a normalized density; normalization is off "
                f"by {defect:.3e}")
        self.points = grid.points
        self.step = grid.step
        self.values = np.clip(raw, 0.0, None)
        self.cdf = _cdf_rows(raw, grid.step)

    def __call__(self, u: np.ndarray,
                 rows: Optional[np.ndarray] = None) -> np.ndarray:
        cdf, vals = self.cdf, self.values
        width = cdf.shape[1]
        if rows is None:
            order = None
            k = j = np.clip(np.searchsorted(cdf[0], u, side="right") - 1, 0,
                            width - 2)
        else:
            # the uniforms of each row, in rising u (searchsorted runs
            # fastest on sorted keys): rows + u/2 rounds into [row, row +
            # 1/2], so one sort keeps every row's uniforms together
            order = np.argsort(rows + 0.5 * u)
            u = u[order]
            counts = np.bincount(rows, minlength=len(cdf))
            bins = np.empty(len(u), dtype=order.dtype)
            lo = 0
            for row, hi in zip(cdf, np.cumsum(counts).tolist()):
                bins[lo:hi] = np.searchsorted(row, u[lo:hi], side="right")
                lo = hi
            j = np.clip(bins - 1, 0, width - 2)
            k = np.repeat(np.arange(len(cdf)) * width, counts) + j
        cdf, vals = cdf.ravel(), vals.ravel()
        c0, c1, f0, f1 = cdf[k], cdf[k + 1], vals[k], vals[k + 1]
        mass = c1 - c0
        s = np.where(mass > 0, (u - c0) / np.where(mass > 0, mass, 1.0), 0.0)
        # solve (2 f0 t + (f1 - f0) t^2) / (f0 + f1) = s for t in [0, 1], in
        # the root form that does not cancel when f1 is close to f0
        disc = np.sqrt((1.0 - s) * f0 * f0 + s * f1 * f1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = s * (f0 + f1) / (disc + f0)
        t = np.clip(np.where(np.isfinite(t), t, s), 0.0, 1.0)
        x = self.points[j] + t * self.step
        if order is None:
            return x
        out = np.empty(len(x))
        out[order] = x
        return out


def _nearest_index(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Index of the sorted grid point nearest each x, a tie going to the
    lower index: ``np.argmin(np.abs(points - x))`` for every x at once."""
    hi = np.clip(np.searchsorted(points, xs), 1, len(points) - 1)
    low_is_closer = np.abs(points[hi - 1] - xs) <= np.abs(points[hi] - xs)
    return hi - low_is_closer


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


def _oscillator_loss(state, target: complex, beta: float,
                     port_cutoff: int) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """The oscillator channel before its displacement: the state's matrix
    after the pure loss of transmissivity theta, |beta| sqrt(1-theta) =
    |target|, and the state's warnings plus one for trace the truncated
    port loses.  Pure loss commutes with every phase rotation."""
    beta_mag = abs(complex(beta))
    if not (beta_mag > 0 and math.isfinite(beta_mag)):
        raise ParameterError(f"oscillator amplitude must be a finite "
                             f"number > 0, got {beta}")
    rho = np.asarray(_state_matrix(state), dtype=complex)
    warnings = getattr(state, "warnings", ())
    ratio = abs(target) / beta_mag
    if ratio >= 1.0:
        raise InfeasibleFeedbackError(
            f"requested amplitude {abs(target):.6g} exceeds what the "
            f"oscillator amplitude {beta_mag:.6g} can deliver")
    if target == 0:
        return rho, warnings
    lossy, deficit = _loss_channel(rho, 1.0 - ratio * ratio, port_cutoff)
    if deficit > 1e-10:
        warnings = warnings + (
            f"finite-lo port truncation lost trace {deficit:.3e}",)
    return lossy, warnings


def finite_lo_displacement(state, target_amplitude: complex, beta: float,
                           port_cutoff: int = _PORT_CUTOFF) -> DensityOperator:
    """Displace by mixing with a strong coherent local oscillator of
    amplitude ``beta`` at a beam splitter whose transmissivity theta solves
    |beta| sqrt(1-theta) = |target amplitude|, then trace out the oscillator
    port.  Converges to the ideal displacement as beta grows; the deviation
    is the residual loss (1-theta) acting on the state."""
    target = complex(target_amplitude)
    lossy, warnings = _oscillator_loss(state, target, beta, port_cutoff)
    if target == 0:
        return DensityOperator(lossy, warnings)
    # D(|t| e^{i th}) = R_th D(|t|) R_th^dag, R_th = diag(e^{ik th}); a
    # real amplitude keeps its sign and th = 0
    theta = math.atan2(target.imag, target.real) if target.imag else 0.0
    rot = np.exp(1j * theta * np.arange(len(lossy)))
    out = _squeeze_displace(0.0, [abs(target) if theta else target.real],
                            rot.conj()[:, None] * lossy * rot, len(lossy),
                            two_sided=True)
    return DensityOperator(rot[:, None] * out * rot.conj(), warnings)


# ---------------------------------------------------------------------------
# trial records and the reusable engine


@dataclass(frozen=True)
class TrialBatch:
    """The records of successive measurement runs as columns, one array
    entry per run: the drawn outcome, the post-measurement state's
    working-quadrature moments, the second outcome (None unless the runs
    measured again) and the resamples, with the ``feedback_mode`` the runs
    share."""

    outcome: np.ndarray
    post_mean: np.ndarray
    post_variance: np.ndarray
    second_outcome: Optional[np.ndarray]
    feedback_mode: str
    resamples: np.ndarray

    def __post_init__(self):
        names = ("outcome", "post_mean", "post_variance") \
            + (("second_outcome",) if self.second_outcome is not None else ())
        finite = np.all(np.isfinite(
            np.stack([getattr(self, name) for name in names])), axis=1)
        if not np.all(finite):
            raise ParameterError(
                f"non-finite trial field {names[int(np.argmin(finite))]}")


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
    """Per-outcome cache entry: post state, moments and second-outcome
    density."""

    post: object
    mean: float
    variance: float
    density: OutcomeDensity


class TrialEngine:
    """Samples outcomes of one parameter set and applies the matching
    reduction, reusing the outcome density and caching, per drawn outcome,
    its conditional entry: the post state, its working-quadrature moments
    and its second-outcome density.  No reduction operator is formed.

    The density and the reductions come from composed_density and
    composed_reductions.  At phi_probe != phi these truncate at the length
    of the input column (composed_reductions), so the engine pads it to
    n_work = max(cutoff, ceil(margin cutoff)) levels there.
    The drawn outcomes with no entry yet are reduced together in one call
    on the input column: to the cutoff, or for finite-lo feedback to n_work
    levels before the feedback.  There the oscillator's loss acts on each
    post state, and then the feedback and the back-squeeze act as one
    exact stage straight to the cutoff.
    One eigenvector matrix on the second grid gives all their moments and
    second-outcome densities.  A reduced state's norm against the density
    at its outcome is the fraction the kept levels capture, and a finite-lo
    post state's trace on the cutoff against its lossy state's is the
    fraction the cutoff keeps; ``warnings`` reports the worst of both below
    1 - 1e-8, with the levels it applies to.

    The first measurement is drawn from the Born density on a grid widened
    until its edges are negligible, then snapped to the nearest grid point;
    the recorded outcome is that grid value, so repeated runs sample exactly
    the discretized measurement.  The optional second measurement is an
    ideal quadrature measurement of the post state.
    """

    def __init__(self, params: SchemeParams,
                 feedback: Optional[FeedbackSpec] = None,
                 input_state: Optional[StateVector] = None,
                 mask: StageMask = StageMask(), margin: float = 2.5,
                 second_step: float = 0.02):
        self.params = params
        self.feedback = feedback if feedback is not None \
            else FeedbackSpec.ideal()
        self.mask = mask
        cutoff = params.cutoff
        _check_margin(margin)
        n_work = max(cutoff, int(math.ceil(margin * cutoff)))
        self._rows = n_work if self.feedback.mode == "finite-lo" else cutoff
        state = input_state if input_state is not None \
            else vacuum_state(cutoff)
        self._input_warnings = state.warnings
        psi = np.asarray(state.amplitudes, dtype=complex)
        if len(psi) != cutoff:
            raise ParameterError(
                f"input state cutoff {len(psi)} does not match the scheme "
                f"cutoff {cutoff}")
        self._psi = psi / np.linalg.norm(psi)
        self._column = self._psi if params.phi_probe == params.phi \
            else np.pad(self._psi, (0, n_work - cutoff))
        self.grid, vals = widen_grid_for_density(self._density, params.grid)
        self._exact = vals  # the reduced states' norms are fractions of it
        self._worst_capture = (1.0, -1, 0)  # (kept, grid index, levels)
        norm = 0.5 * self.grid.step * float(np.sum(vals[1:] + vals[:-1]))
        if norm <= 0:
            raise ZeroProbabilityError("outcome density carries no mass")
        # the grid's trapezoid sum leaves a small mass defect; renormalize
        # for sampling but keep the defect on record
        self.normalization_defect = abs(1.0 - norm)
        self.density = OutcomeDensity(self.grid, vals / norm)
        self._draw = _InverseCdf(self.density)
        if self.feedback.mode == "finite-lo" and mask.feedback:
            self.feedback.validate_for(params, self.grid)
        self.second_grid = OutcomeGrid.from_range(
            self.grid.x_min, self.grid.x_max, second_step)
        self._xq = make_quadrature(cutoff, params.phi)
        self._cache: Dict[int, Optional[_Conditional]] = {}
        self._identity_entry: Optional[_Conditional] = None

    # -- conditional-state machinery ------------------------------------

    def _density(self, pts: np.ndarray) -> np.ndarray:
        """The Born density of the input at the outcomes ``pts``."""
        return composed_density(self.params, self._column, pts,
                                self.mask.pre_squeeze)

    def _reduced(self, indices: np.ndarray) -> np.ndarray:
        """The input reduced at each grid index, unnormalized, one row per
        index: its cutoff levels, or for finite-lo feedback its n_work
        levels before the feedback stage, which the oscillator channel
        replaces."""
        xs = self.grid.points[indices]
        mask = StageMask(self.mask.pre_squeeze, False, False) \
            if self.feedback.mode == "finite-lo" else self.mask
        return composed_reductions(self.params, xs, self._column[:, None],
                                   self._rows, mask)[:, :, 0]

    def _has_mass(self, keys: np.ndarray, pending: Dict) -> np.ndarray:
        """Whether each of the distinct grid indices ``keys`` has
        probability mass.  Indices with no cache entry and none in
        ``pending`` (index -> normalized post vector, or None below the
        probability floor) are reduced in one batch and added to
        ``pending``."""
        new = [i for i in keys.tolist()
               if i not in self._cache and i not in pending]
        if new:
            vecs = self._reduced(np.array(new))
            probs = np.linalg.norm(vecs, axis=1) ** 2
            for i, vec, p in zip(new, vecs, probs.tolist()):
                pending[i] = vec / math.sqrt(p) \
                    if p >= _PROBABILITY_FLOOR else None
                if p >= _PROBABILITY_FLOOR:
                    self._worst_capture = min(
                        self._worst_capture, (p / self._exact[i], i,
                                              self._rows))
        mass = np.ones(len(self.grid), dtype=bool)
        for known in (self._cache, pending):
            mass[[i for i, e in known.items() if e is None]] = False
        return mass[keys]

    def _store(self, keys: np.ndarray, pending: Dict) -> None:
        """Cache the entries of the distinct grid indices ``keys`` that have
        none, from their ``pending`` post vectors (see ``_has_mass``)."""
        new = [i for i in keys.tolist() if i not in self._cache]
        live = [i for i in new if pending[i] is not None]
        self._cache.update((i, None) for i in new if pending[i] is None)
        if not live:
            return
        if self.feedback.mode == "finite-lo":
            posts = [self._oscillator_post(i, pending[i]) for i in live]
        else:
            posts = [pending[i] for i in live]
        self._cache.update(zip(live, self._entries(posts)))

    def _oscillator_post(self, index: int, post: np.ndarray
                         ) -> DensityOperator:
        """The finite-lo post state of the n_work-level post vector, made
        in the frame of phi = 0, where the feedback t and the back-squeeze
        s are real and pure loss commutes with R_phi: the oscillator's loss
        acts on the post vector, then the feedback and the back-squeeze act
        on both sides of the lossy state as one stage (_squeeze_displace)
        straight to the cutoff rows, so nothing is truncated between them.
        The trace those rows keep, against the lossy state's, is folded
        into the worst captured fraction."""
        params, c = self.params, self.params.cutoff
        frame = np.exp(1j * params.phi * np.arange(len(post)))
        t = feedback_coefficient(params.eta) \
            * float(self.grid.points[index]) if self.mask.feedback else 0.0
        s = backsqueeze_param(params.eta, self.mask.pre_squeeze) \
            if self.mask.back_squeeze else 0.0
        lossy, warnings = _oscillator_loss(post * frame.conj(), t,
                                           self.feedback.beta, _PORT_CUTOFF)
        mat = _squeeze_displace(s, [t], lossy, c, two_sided=True)
        trace = np.trace(mat).real
        self._worst_capture = min(self._worst_capture,
                                  (trace / np.trace(lossy).real, index, c))
        mat = frame[:c, None] * mat * frame[:c].conj()
        return DensityOperator(mat / trace, warnings)

    def _entries(self, posts: list) -> List[_Conditional]:
        """Cache entries of normalized post states, all pure vectors or all
        DensityOperators: working-quadrature moments and the density of an
        ideal second measurement, from one eigenvector matrix."""
        chi = quadrature_eigenvector_matrix(self.second_grid.points,
                                            len(self._psi), self.params.phi)
        xq = self._xq
        if isinstance(posts[0], DensityOperator):
            rho = np.array([p.matrix for p in posts])
            xr = xq @ rho
            mean = np.einsum("enn->e", xr).real
            second = np.einsum("mn,enm->e", xq, xr).real
            vals = np.clip(np.sum((chi.conj() @ rho) * chi, axis=2).real,
                           0.0, None)
        else:
            vecs = np.array(posts)
            xv = vecs @ xq.T
            mean = np.einsum("en,en->e", vecs.conj(), xv).real
            second = np.linalg.norm(xv, axis=1) ** 2
            vals = np.abs(vecs @ chi.conj().T) ** 2
        norms = vals @ self.second_grid.weights()
        if np.any(norms <= 0):
            raise ZeroProbabilityError("conditional density carries no mass")
        return [_Conditional(post, m, s - m * m,
                             OutcomeDensity(self.second_grid, v / z))
                for post, m, s, v, z in zip(posts, mean.tolist(),
                                            second.tolist(), vals,
                                            norms.tolist())]

    def _identity_conditional(self) -> _Conditional:
        if self._identity_entry is None:
            self._identity_entry = self._entries([self._psi])[0]
        return self._identity_entry

    @property
    def warnings(self) -> Tuple[str, ...]:
        """Warnings the constructors attached to what this engine used (the
        input state and the conditional states formed so far) and the worst
        captured fraction below 1 - 1e-8, as the fraction lost: printed to
        6 digits, a kept fraction that close to 1 would read as 1."""
        posts = tuple(w for e in self._cache.values() if e is not None
                      for w in getattr(e.post, "warnings", ()))
        kept, index, levels = self._worst_capture
        capture = () if kept >= 1.0 - 1e-8 else (
            f"the reduced state at outcome {self.grid.points[index]:.6g} "
            f"loses a fraction {1.0 - kept:.6g} of its probability beyond "
            f"{levels} levels",)
        return self._input_warnings + posts + capture

    def post_state(self, index: int):
        """Normalized post-measurement state at a grid index (pure vector
        for ideal feedback, density operator for finite-lo feedback)."""
        pending: Dict = {}
        self._has_mass(np.array([index]), pending)
        self._store(np.array([index]), pending)
        entry = self._cache[index]
        if entry is None:
            raise ZeroProbabilityError(
                f"outcome {self.grid.points[index]} has no probability mass")
        return entry.post

    # -- sampling -------------------------------------------------------

    def trials(self, rng, n: int, want_second: bool = False,
               identity_control: bool = False) -> TrialBatch:
        """``n`` runs, each of which draws an outcome (redrawing outcomes
        without probability mass), reduces the input state
        (``identity_control`` leaves it as is), and with ``want_second``
        measures the same quadrature again.  Column by column the batch
        equals n successive batches of one on ``rng``, and it leaves ``rng``
        where they leave it.

        The uniforms of all runs are drawn at once, each run's first
        followed by its second with ``want_second``.  An outcome without
        probability mass passes the run on to the next uniform and draws one
        more at the end of the stream, so each loop here is over such
        resample events, never over runs."""
        rng = _as_generator(rng)
        pts = self.grid.points
        step = 2 if want_second else 1
        u = rng.random(n * step)
        # each uniform's grid index as a first draw, mapped once a run
        # starts on it (-1 before): a run's second uniform is mapped only
        # when a resample shifts a later run onto it
        first = np.full(len(u), -1)
        index = np.empty(n, dtype=first.dtype)
        start = np.empty(n, dtype=first.dtype)  # each run's accepted uniform
        resamples = np.zeros(n, dtype=int)
        pending: Dict = {}
        rejected, done, pos = [], 0, 0
        keys = which = np.zeros(0, dtype=int)  # no pass runs at n = 0
        while done < n:
            starts = pos + step * np.arange(n - done)
            new = starts[first[starts] < 0]
            first[new] = _nearest_index(pts, self._draw(u[new]))
            drawn = first[starts]
            if identity_control:
                stop = n - done
            else:
                # one unique per pass: a pass with no rejection takes every
                # remaining run, so its keys serve the batch's entries
                keys, which = np.unique(drawn, return_inverse=True)
                mass = self._has_mass(keys, pending)[which]
                stop = n - done if mass.all() else int(np.argmin(mass))
            index[done:done + stop] = drawn[:stop]
            start[done:done + stop] = starts[:stop]
            done += stop
            if done == n:
                break
            rejected.append(drawn[stop])
            resamples[done] += 1
            # one more uniform keeps later runs on their uniforms
            u = np.concatenate([u, rng.random(1)])
            first = np.append(first, -1)
            if resamples[done] > _MAX_RESAMPLES:
                raise ZeroProbabilityError(
                    f"no outcome with probability mass found in "
                    f"{_MAX_RESAMPLES + 1} draws (grid artifact)")
            pos = starts[stop] + 1
        if identity_control:
            entries = [self._identity_conditional()]
            which = np.zeros(n, dtype=int)
        else:
            if rejected:
                keys, which = np.unique(index, return_inverse=True)
            self._store(np.union1d(keys, rejected) if rejected else keys,
                        pending)
            entries = [self._cache[i] for i in keys.tolist()]
        second = None
        if want_second:
            # every entry's density lies on the second grid: one stack
            second = _InverseCdf(*[e.density for e in entries])(
                u[start + 1], which) if entries else np.empty(0)
        mode = "identity-control" if identity_control else self.feedback.mode
        return TrialBatch(
            outcome=pts[index],
            post_mean=np.array([e.mean for e in entries])[which],
            post_variance=np.array([e.variance for e in entries])[which],
            second_outcome=second, feedback_mode=mode, resamples=resamples)


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
    # the lower tail: 0.5 (1 - c) is exact for c >= 0.5 and inside (0, 0.5)
    # for every c in (0, 1), where 0.5 (1 + c) rounds to 1 near c = 1
    z = -statistics.NormalDist().inv_cdf(0.5 * (1.0 - confidence))
    return RepeatabilityStats(
        n_trials=n, diff_mean=dmean, diff_variance=dvar, slope=slope,
        confidence=confidence,
        diff_mean_halfwidth=z * math.sqrt(dvar / n),
        diff_variance_halfwidth=z * dvar * math.sqrt(2.0 / (n - 1)),
        slope_halfwidth=z * slope_se)
