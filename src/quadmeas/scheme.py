"""The all-optical projective-quadrature measurement pipeline.

Schroedinger-picture stage order (rightmost acts first on the input):

    back-squeeze . feedback displacement . probe readout . two-mode mixing
        . probe preparation (x) system pre-squeeze

The signal is squeezed by r_pre = -ln(1-eta)/2 along the working quadrature,
mixed with a squeezed-vacuum probe (variance ratio sigma) on a mixer of
transmissivity eta, and the probe's quadrature is read out.  Conditioned on
outcome x, the signal then receives a displacement of amplitude
sqrt((1-eta)/eta) x and a squeeze by ln(eta(1-eta))/2, which exactly cancel
the unitary dressing left by the readout.  The resulting reduction-operator
family is a Gaussian function of the signal quadrature,

    Omega(x) = (2 pi Delta^2)^{-1/4} exp[-(x - x_phi)^2 / (4 Delta^2)],

with r.m.s. kernel width Delta = sqrt(eta sigma)/2: a projective quadrature
measurement smeared by a tunable Gaussian, approaching the projective limit
as eta sigma -> 0 while leaving pure states pure at every width.

All squeeze stages are realizable as phase-sensitive amplifiers (PSA): a
PSA of intensity gain G pumped at phase psi maps the quadrature at psi to
G^{-1/2} times itself, which is the squeeze S(-ln(G)/2) along psi.  Pump
phase table used here (working quadrature phase phi, probe readout phase
phi_probe):

    stage        gain            pump phase        equivalent squeeze
    ---------    ------------    --------------    -------------------------
    signal pre   1/(1-eta)       phi + pi/2        S(-ln(1-eta)/2)   at phi
    probe prep   sigma           phi_probe+pi/2    S(ln(sigma)/2)    at phi_probe
    back         eta(1-eta)      phi + pi/2        S(ln(eta(1-eta))/2) at phi

i.e. every pump is set a quarter period from the working quadrature, so the
deamplified axis is the conjugate one (S(r, psi+pi/2) = S(-r, psi) exactly).

Numerical architecture.  Each stage rescales, shifts or multiplies the
quadrature wavefunction, so an element or a Born density of any run of
them is a polynomial times a Gaussian.  One Gauss rule (_rule, on
fock._gauss_rule) integrates it exactly, and one contraction applies it,
chi_rows(y)^T (f . chi_n(u) @ cols) (_stage), with the outcomes in chunks
of one formula (_chunked).  Through them run the exact composition,
which pom and sampling read (composed_reductions, and composed_density on
the rule alone), and every squeeze and displacement S(s) D(t) in the
package (_squeeze_displace).  At phi_probe = phi the composition is one
stage; at phi_probe != phi it is a chain of three around the raw readout,
which truncates at the length of the columns it is given (see
composed_reductions).

SchemeFamilyBuilder, which verify and sweep check against the target,
composes the stages as matrices in a working space of margin * cutoff
levels, every entry exact to rounding, and truncates only the result (see
its docstring).  verify_bch_factorization runs in joint-parity sectors on
the corner of the joint space that its comparison reads.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import fock
from .errors import InfeasibleFeedbackError, ParameterError
from .fock import (
    StateVector,
    _check_transmissivity,
    make_annihilation,
    make_quadrature,
    squeezed_vacuum,
)
from .gaussian import (
    GaussianState,
    beam_splitter_symplectic,
    condition_on_quadrature,
    displacement_transform,
    quadrature_statistics,
    squeeze_symplectic,
    tensor_product,
    vacuum_gaussian,
)
from .kernel import OutcomeGrid, ReductionOperatorFamily, vn_target_family

DEFAULT_GRID_SPEC = "-3:3:0.25"

# Element budget, counted as X n^2, of one batched composition (n the working
# size, or the Gauss rule's nodes): families and reductions on large grids are
# composed in outcome chunks, so transient memory does not grow with X.
_STACK_ELEMENTS = 1 << 19

# Probe levels with |amplitude| at or below this floor are left out of the
# mixer-probe readout; each one dropped moves an operator entry by at most it.
_PROBE_FLOOR = 1e-17


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SchemeParams:
    """All tunables of the optical measurement scheme.

    eta        mixer intensity transmissivity, strictly inside (0, 1)
    sigma      probe quadrature variance in units of the vacuum value (> 0)
    phi        phase of the signal quadrature being measured
    phi_probe  phase of the probe quadrature that is read out; defaults to
               phi, the choice for which the compensation stages cancel the
               readout dressing exactly
    cutoff     Fock-space dimension of the delivered operators
    grid       outcome grid (default "-3:3:0.25")
    """

    eta: float
    sigma: float
    phi: float = 0.0
    phi_probe: Optional[float] = None
    cutoff: int = 60
    grid: OutcomeGrid = None

    def __post_init__(self):
        _check_transmissivity(self.eta)
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ParameterError(
                f"probe variance ratio sigma must be > 0, got {self.sigma}")
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 2:
            raise ParameterError(f"cutoff must be an integer >= 2, "
                                 f"got {self.cutoff}")
        if self.phi_probe is None:
            object.__setattr__(self, "phi_probe", float(self.phi))
        for name in ("phi", "phi_probe"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"quadrature phase {name} must be "
                                     f"finite, got {getattr(self, name)}")
        if self.grid is None:
            object.__setattr__(self, "grid",
                               OutcomeGrid.from_spec(DEFAULT_GRID_SPEC))

    @property
    def delta(self) -> float:
        """r.m.s. width of the effective measurement kernel."""
        return measurement_width(self.eta, self.sigma)


@dataclass(frozen=True)
class StageMask:
    """Which compensation stages run.  The raw readout (mixing + probe
    readout) always runs; the three optional stages may be disabled to
    expose the intermediate operator forms."""

    pre_squeeze: bool = True
    feedback: bool = True
    back_squeeze: bool = True

    @classmethod
    def raw(cls) -> "StageMask":
        return cls(False, False, False)


def presqueeze_param(eta: float) -> float:
    """Squeeze parameter of the signal pre-squeeze stage: -ln(1-eta)/2 > 0.
    Raises the working-quadrature variance by 1/(1-eta) so that the mixer's
    transmission loss lands the kernel argument on x - x_quad exactly."""
    _check_transmissivity(eta)
    return -0.5 * math.log1p(-eta)


def backsqueeze_param(eta: float, pre_squeezed: bool = True) -> float:
    """Squeeze parameter of the final compensation stage.

    The readout leaves the adjoint squeeze dressing S(q)^dag on the signal;
    applying S(q) cancels it.  With the pre-squeeze on, q = ln(eta(1-eta))/2
    (symmetric under eta <-> 1-eta); with the pre-squeeze disabled the
    residual is only S(ln(eta)/2)^dag.
    """
    _check_transmissivity(eta)
    if pre_squeezed:
        return 0.5 * math.log(eta * (1.0 - eta))
    return 0.5 * math.log(eta)


def feedback_coefficient(eta: float) -> float:
    """Outcome-to-displacement gain sqrt((1-eta)/eta)."""
    _check_transmissivity(eta)
    return math.sqrt((1.0 - eta) / eta)


def feedback_displacement(x: float, eta: float, phi: float = 0.0) -> complex:
    """Amplitude of the conditional displacement: sqrt((1-eta)/eta) x along
    the working quadrature (phase phi), cancelling the D^dag dressing of
    the raw readout."""
    return feedback_coefficient(eta) * x * complex(math.cos(phi),
                                                   math.sin(phi))


def _check_margin(margin: float) -> None:
    """Working-space margins are finite numbers >= 1."""
    if not (margin >= 1.0 and math.isfinite(margin)):
        raise ParameterError(f"working-space margin must be a finite "
                             f"number >= 1, got {margin}")


def measurement_width(eta: float, sigma: float) -> float:
    """Kernel r.m.s. width Delta = sqrt(eta sigma)/2."""
    _check_transmissivity(eta)
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return 0.5 * math.sqrt(eta * sigma)


# ---------------------------------------------------------------------------
# feedback specification


@dataclass(frozen=True)
class FeedbackSpec:
    """How the conditional displacement is realized.

    mode "ideal": exact unitary displacement.
    mode "finite-lo": mixing with a strong coherent local oscillator of
    amplitude beta through an outcome-controlled transmissivity cell
    obeying |beta| sqrt(1-theta(x)) = |required amplitude|; exact for
    |beta| -> infinity, infeasible when the required amplitude reaches
    |beta|.
    """

    mode: str = "ideal"
    beta: Optional[complex] = None

    def __post_init__(self):
        if self.mode not in ("ideal", "finite-lo"):
            raise ParameterError(
                f"feedback mode must be 'ideal' or 'finite-lo', "
                f"got {self.mode!r}")
        if self.mode == "finite-lo":
            if self.beta is None or abs(self.beta) <= 0.0:
                raise ParameterError(
                    "finite-lo feedback requires a nonzero local-oscillator "
                    "amplitude beta")
        if self.beta is not None and not cmath.isfinite(self.beta):
            raise ParameterError(f"local-oscillator amplitude beta must be "
                                 f"finite, got {self.beta}")

    @classmethod
    def ideal(cls) -> "FeedbackSpec":
        return cls("ideal")

    @classmethod
    def finite_lo(cls, beta: complex) -> "FeedbackSpec":
        return cls("finite-lo", complex(beta))

    def theta(self, amplitude: complex) -> float:
        """Cell transmissivity realizing the given displacement amplitude:
        1 - (|amplitude|/|beta|)^2, valid while that stays in (0, 1]."""
        if self.mode == "ideal":
            return 1.0
        ratio = abs(amplitude) / abs(self.beta)
        if ratio >= 1.0:
            raise InfeasibleFeedbackError(
                f"required displacement {abs(amplitude):.4g} reaches the "
                f"local-oscillator amplitude {abs(self.beta):.4g}")
        return 1.0 - ratio * ratio

    def validate_for(self, params: SchemeParams,
                     grid: Optional[OutcomeGrid] = None) -> None:
        """Check that every outcome on the grid is realizable (theta in
        (0,1]); raises InfeasibleFeedbackError otherwise."""
        if self.mode == "ideal":
            return
        g = grid if grid is not None else params.grid
        worst = max(abs(g.x_min), abs(g.x_max))
        self.theta(feedback_displacement(worst, params.eta, params.phi))


# ---------------------------------------------------------------------------
# the one Gauss-rule stage


def _chunked(fn, n_out: int, nodes: int, width: int) -> np.ndarray:
    """fn(sl) for consecutive slices sl of ``n_out`` outcomes, concatenated
    along the outcomes.  A Gauss-rule stage holds nodes x width elements per
    outcome, width the Hermite levels plus the columns it carries, so each
    slice takes _STACK_ELEMENTS // (nodes width) outcomes, at least one."""
    step = max(1, _STACK_ELEMENTS // (nodes * width))
    if n_out <= step:
        return fn(slice(None))
    return np.concatenate([fn(slice(i, i + step))
                           for i in range(0, n_out, step)])


def _rule(scale: float, shift: np.ndarray, nodes: int, gain: float = 1.0,
          probe=None, power: int = 1):
    """Nodes y, arguments u = A y + B and weights f of the rule of one stage,
    shaped (len(B), nodes), for A = ``scale`` and B = ``shift`` per outcome:

        sum_l f_l g(y_l) = int g(y) (gain phi(Cy + E))^power dy,

    phi(v) = (pi sigma/2)^{-1/4} e^{-v^2/sigma} the probe factor of ``probe``
    = (C, E, sigma), E per outcome, and phi = 1 without one.  It is exact
    for g a polynomial of degree < 2 nodes times e^{-(2 - power) y^2 -
    power (Ay + B)^2}: with a = 2 - power + power (A^2 + C^2/sigma), y =
    y_0 + beta z, y_0 = -power (AB + CE/sigma)/a and beta = sqrt(2/a), the
    integrand is a polynomial times e^{-2z^2}, which the rule of
    fock._gauss_rule integrates (Golub & Welsch, Math. Comp. 23, 221
    (1969)).  Power 1 serves matrix elements chi_m(y) chi_k(Ay + B), power
    2 Born densities |psi(Ay + B)|^2."""
    c_, e_, sigma = probe if probe is not None else (0.0, 0.0, 1.0)
    a = 2.0 - power + power * (scale * scale + c_ * c_ / sigma)
    beta = math.sqrt(2.0 / a)
    lam, w = fock._gauss_rule(nodes)
    y = (-power * (scale * shift + c_ * e_ / sigma) / a)[:, None] + beta * lam
    factor = np.full(y.shape, gain) if probe is None \
        else gain * (0.5 * math.pi * sigma) ** -0.25 \
        * np.exp(-(c_ * y + e_[:, None]) ** 2 / sigma)
    return y, scale * y + shift[:, None], beta * w * factor ** power


def _stage(scale: float, shift, cols: np.ndarray, rows: int,
           gain: float = 1.0, probe=None, lead=None) -> np.ndarray:
    """The stage psi(y) -> gain psi(Ay + B) phi(Cy + E) (see _rule) on the
    leading ``rows`` levels, for A = ``scale`` and B = ``shift`` per
    outcome, shape (len(B), rows, c), every entry exact to rounding, with
    no n x n matrix formed:

        <m|stage|k> = int chi_m(y) gain chi_k(Ay + B) phi(Cy + E) dy

    is a polynomial of degree m + k < rows + n - 1 times a Gaussian, which
    the (rows + n + 1) // 2 nodes of _rule integrate exactly, and each
    outcome's columns take the one contraction chi_rows(y)^T (f . chi_n(u)
    @ cols).  The columns are shared, ``cols`` shaped (n, c), or one set
    per outcome, ``cols`` shaped (len(B), n, c), or one set per outcome
    as a readout: with ``lead`` shaped (len(B), p) and ``cols`` (p, n, c),
    outcome x takes sum_p lead[x, p] cols[p], formed for one outcome chunk
    (_chunked) at a time.  A set per outcome is contracted on its float
    view."""
    shift = np.asarray(shift, dtype=float)
    n, c = cols.shape[-2:]
    nodes = (rows + n + 1) // 2
    y, u, f = _rule(scale, shift, nodes, gain, probe)
    dtype = np.result_type(cols, lead if lead is not None else cols)
    shared = lead is None and cols.ndim == 2
    if lead is not None:
        cols = cols.reshape(len(cols), -1)

    def chunk(sl):
        # chi_n(u) is bound to no name, so its memory is free for the
        # stacks after it; held on, it made a 6 ms verify family about
        # 2.5 ms slower (n_work 160, 2 vCPUs, 1 BLAS thread)
        k = len(y[sl])
        if shared:
            inner = (fock._hermite_functions(u[sl].ravel(), n) @ cols
                     ).reshape(k, nodes, c)
        else:
            own = (cols[sl] if lead is None else lead[sl] @ cols
                   ).view(float).reshape(k, n, -1)
            inner = fock._hermite_functions(u[sl].ravel(), n).reshape(
                k, nodes, n) @ own
        chi = fock._hermite_functions(y[sl].ravel(), rows).reshape(
            k, nodes, rows)
        return (chi.transpose(0, 2, 1) @ (f[sl, :, None] * inner)).view(dtype)

    return _chunked(chunk, len(shift), nodes, max(n, rows) + c)


def _squeeze_displace(s: float, t, cols: np.ndarray, rows: int,
                      lead=None, two_sided: bool = False) -> np.ndarray:
    """S(s) D(t) on the leading ``rows`` levels for real amplitudes t per
    outcome, shape (len(t), rows, c): the pair maps psi(y) to e^{-s/2}
    psi(e^{-s} y - t), the stage (_stage) at A = e^{-s}, B = -t and gain
    e^{-s/2}, on columns as _stage takes them.  A squeeze alone is the
    stage at t = 0.  With ``two_sided``, K rho K^dag of a matrix rho for
    the one amplitude in t, shape (rows, rows), as K (K rho^dag)^dag."""
    a, b, gain = math.exp(-s), -np.asarray(t, dtype=float), math.exp(-0.5 * s)
    if two_sided:
        half = _stage(a, b, cols.conj().T, rows, gain)[0]
        return _stage(a, b, half.conj().T, rows, gain)[0]
    return _stage(a, b, cols, rows, gain, lead=lead)


def _frame_squeeze(params: SchemeParams, pre_on: bool) -> float:
    """The squeeze tau of the builder's balanced-squeeze frame for a
    pre-squeeze flag (see SchemeFamilyBuilder): min(max(ln(sigma)/2, 0),
    2 r_in) at phi_probe = phi, r_in = presqueeze_param(eta) with the
    pre-squeeze on and 0 with it off; 0 at phi_probe != phi.

    tau lies in [0, 2 r_in] and in [0, ln(sigma)], so |r_in - tau| <= r_in
    and |ln(sigma)/2 - tau| <= |ln(sigma)/2|: the frame never squeezes the
    input or the probe harder than tau = 0 does.  The clip is a correctness
    rule: tau = ln(sigma)/2 at sigma < 1 would grow the input squeeze past
    the working space (at eta 0.8, sigma 0.5, margin 4 the block would read
    8.4e-4)."""
    if not pre_on or params.phi_probe != params.phi:
        return 0.0
    return min(max(0.5 * math.log(params.sigma), 0.0),
               2.0 * presqueeze_param(params.eta))


def _mixer_sectors(eta: float, n_rows: int, n_cols: int, n_sectors: int):
    """Yield (s, X_s) for s < n_sectors, X_s[m, k] = <m, s-m|U_mix|s-k, k>
    on the rows m < n_rows and columns k < n_cols, every entry an exact
    element of the untruncated mixer.  X_s is a view of one array
    overwritten in place at each step.

    X_s follows from X = X_{s-1}, starting at X_0 = [[1]]:

      s X_s[m, k] = sqrt(s-k) (c sqrt(m) X[m-1, k] + r sqrt(s-m) X[m, k])
                  + sqrt(k) (c sqrt(s-m) X[m, k-1] - r sqrt(m) X[m-1, k-1])

    with transmission and reflection amplitudes c = sqrt(eta) and
    r = sqrt(1-eta), from U a^dag U^dag = c a^dag + r b^dag,
    U b^dag U^dag = -r a^dag + c b^dag and a^dag a + b^dag b = s on
    sector s.  Row (m, p) reads only rows (m-1, p) and (m, p-1), so
    keeping rows m < n_rows is exact; so is keeping columns k < n_cols.

    Both callers read X_s only where the partner levels s - m and s - k
    stay below n_rows, i.e. on rows and columns from lo = s - n_rows + 1
    on, and those read no entry below lo - 1 of X_{s-1}; so from sector
    n_rows on the rows and columns below lo are left as they were.
    """
    c, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    root = np.sqrt(np.arange(n_sectors + 1.0))
    # X_s is kept transposed, xt[k, m] = X_s[m, k], so that the steps run
    # along the longer index m, and yielded as the view xt.T
    xt = np.zeros((n_cols, n_rows))
    xt[0, 0] = 1.0
    for s in range(n_sectors):
        if s:
            # The step is X -> (L_1 X R_1 + L_2 X R_2)/s, with L_i the
            # images of a^dag, b^dag on the rows and R_i the ladders
            # sqrt(s-k), sqrt(k) on the columns: L_1 L_1^dag +
            # L_2 L_2^dag = R_1^dag R_1 + R_2^dag R_2 = s 1, so it never
            # grows the operator norm and rounding errors add up instead
            # of multiplying.  The one-sided step U|n+1, k> = (c a^dag +
            # r b^dag) U|n, k>/sqrt(n+1) amplifies them by up to
            # sqrt(C(n+k, k)), about 1e35 at n_work 250.
            rows, cols = min(s + 1, n_rows), min(s + 1, n_cols)
            lo = max(0, s - n_rows + 1)
            k0, m1 = max(lo - 1, 0), max(lo, 1)  # column lo reads k = lo - 1
            up = np.zeros((cols - k0, rows - lo))  # sqrt(m) X[m-1, k]
            up[:, m1 - lo:] = xt[k0:cols, m1 - 1:rows - 1] * root[m1:rows]
            stay = xt[k0:cols, lo:rows] \
                * root[s + 1 - rows:s + 1 - lo][::-1]  # sqrt(s-m) X[m, k]
            new = (c * up + r * stay)[lo - k0:] \
                * (root[s + 1 - cols:s + 1 - lo][::-1, None] / s)
            new[m1 - lo:] += (c * stay[:-1] - r * up[:-1]) \
                * (root[m1:cols, None] / s)
            xt[lo:cols, lo:rows] = new
        yield s, xt.T


# ---------------------------------------------------------------------------
# the five stages composed exactly on the Gauss rule


def _compensation(params: SchemeParams, xs: np.ndarray, mask: StageMask):
    """(s_b, t) of the back-squeeze and the feedback per outcome, 0 for a
    masked-off stage: s_b = backsqueeze_param(eta) for the mask's
    pre-squeeze flag and t = feedback_coefficient(eta) x."""
    s = backsqueeze_param(params.eta, mask.pre_squeeze) \
        if mask.back_squeeze else 0.0
    return s, feedback_coefficient(params.eta) * xs * mask.feedback


def _stage_coefficients(params: SchemeParams, xs, mask: StageMask):
    """(A, B, gain, (C, E, sigma)) of the composition as one stage (_stage),
    Omega_0(x) psi(y) = e^{-(r_p+r_b)/2} psi(Ay + B) phi(Cy + E), B and E
    per outcome: in the x_0 representation a squeeze by s maps psi(y) to
    e^{-s/2} psi(e^{-s} y), the mixer and the readout at x to psi(cy + rx)
    phi(-ry + cx), c = sqrt(eta), r = sqrt(1-eta), phi(u) = (pi
    sigma/2)^{-1/4} e^{-u^2/sigma}, and the feedback to psi(y - t), t =
    feedback_coefficient(eta) x.  A masked-off stage has parameter 0.  The
    probe is read at phi, whatever phi_probe is: composed_reductions takes
    the offset into the phases around the raw readout."""
    c, r = math.sqrt(params.eta), math.sqrt(1.0 - params.eta)
    r_p = presqueeze_param(params.eta) if mask.pre_squeeze else 0.0
    xs = np.asarray(xs, dtype=float)
    r_b, t = _compensation(params, xs, mask)
    return (c * math.exp(-r_p - r_b), math.exp(-r_p) * (r * xs - c * t),
            math.exp(-0.5 * (r_p + r_b)),
            (-r * math.exp(-r_b), r * t + c * xs, params.sigma))


def _offset_columns(params: SchemeParams, cols: np.ndarray,
                    pre_squeeze: bool) -> np.ndarray:
    """R(-delta) S(r_p) cols on len(cols) rows, delta = phi_probe - phi,
    with S(r_p) the pre-squeeze stage when ``pre_squeeze``: the columns
    that the raw readout takes at an offset probe (composed_reductions)."""
    n = len(cols)
    if pre_squeeze:
        cols = _squeeze_displace(presqueeze_param(params.eta), [0.0], cols,
                                 n)[0]
    return np.exp(-1j * (params.phi_probe - params.phi)
                  * np.arange(n))[:, None] * cols


def composed_reductions(params: SchemeParams, xs, cols: np.ndarray,
                        rows: int, mask: StageMask = StageMask()
                        ) -> np.ndarray:
    """<m|Omega(x)|col> for m < ``rows``, every outcome in ``xs`` and every
    column of ``cols`` (shape (n, k)), shaped (len(xs), rows, k), exact to
    rounding: e^{-(r_p+r_b)/2} int chi_m(y) chi_n(Ay + B) phi(Cy + E) dy,
    the stage (_stage) of _stage_coefficients.  R_phi acts on the columns
    and the rows.

    At phi_probe != phi the probe is read at the offset delta = phi_probe
    - phi.  R(delta) (x) R(delta), R(delta) = diag(e^{ik delta}), commutes
    with the real mixer, so the readout there is R(delta) W_0(x)
    R(-delta), W_0 the raw readout at delta = 0; this holds element by
    element even after truncation, as the mixer conserves the total:
    V_delta[m, p, n] = e^{i(m+p-n) delta} V_0[m, p, n].  The composition
    is then the chain S(s_b) D(t) R(delta) W_0(x) R(-delta) S(r_p) of three
    stages: the pre-squeeze to n rows, the raw readout with the real probe
    to max(n, rows) rows, and the feedback and the back-squeeze on each
    outcome's columns to ``rows``.  The working size is n, the length of
    the columns given: the first two stages truncate there."""
    if params.phi:
        cols = np.exp(-1j * params.phi * np.arange(len(cols)))[:, None] * cols
    delta = params.phi_probe - params.phi
    if delta:
        xs = np.asarray(xs, dtype=float)
        n = max(len(cols), rows)
        a, b, gain, probe = _stage_coefficients(params, xs, StageMask.raw())
        out = _stage(a, b, _offset_columns(params, cols, mask.pre_squeeze), n,
                     gain, probe) * np.exp(1j * delta * np.arange(n))[:, None]
        if mask.feedback or mask.back_squeeze:
            out = _squeeze_displace(*_compensation(params, xs, mask), out,
                                    rows)
        else:
            out = out[:, :rows]
    else:
        a, b, gain, probe = _stage_coefficients(params, xs, mask)
        out = _stage(a, b, cols, rows, gain, probe)
    if params.phi:
        out = out * np.exp(1j * params.phi * np.arange(rows))[:, None]
    return out


def composed_density(params: SchemeParams, psi, xs,
                     pre_squeeze: bool = True) -> np.ndarray:
    """Born density ||Omega(x) psi||^2 of a pure input at every outcome in
    ``xs``, exact to rounding, with the unitary feedback and back-squeeze
    off: e^{-r_p} int |psi(Ay + B)|^2 phi(Cy + E)^2 dy on the power-2 rule
    of _rule with a node per level up to psi's last nonzero amplitude,
    the outcomes in chunks (_chunked).  At phi_probe != phi it is the
    density of the raw readout at phi = 0 of R(-delta) S(r_p) R_phi^dag
    psi on len(psi) rows (composed_reductions): R(delta) keeps the norm."""
    psi = np.asarray(psi.amplitudes if isinstance(psi, StateVector) else psi)
    if psi.ndim != 1:
        raise ParameterError("composed_density wants a pure state vector")
    if params.phi_probe != params.phi:
        psi = np.exp(-1j * params.phi * np.arange(len(psi))) * psi
        psi = _offset_columns(params, psi[:, None], pre_squeeze)[:, 0]
        params = dataclasses.replace(params, phi=0.0, phi_probe=0.0)
        pre_squeeze = False
    n = int(np.flatnonzero(psi)[-1]) + 1 if np.any(psi) else 1
    a, b, gain, probe = _stage_coefficients(
        params, xs, StageMask(pre_squeeze, False, False))
    y, u, f = _rule(a, b, n, gain, probe, 2)
    if params.phi:
        psi = psi[:n] * np.exp(-1j * params.phi * np.arange(n))

    def chunk(sl):
        amp = fock._hermite_functions(u[sl].ravel(), n) @ psi[:n]
        return np.sum(f[sl] * np.abs(amp.reshape(y[sl].shape)) ** 2, axis=1)

    return _chunked(chunk, len(y), n, n + 1)


# ---------------------------------------------------------------------------
# the pipeline builder


class SchemeFamilyBuilder:
    """Assembles the scheme's reduction operators in a working Fock space.

    A composition runs in two stages.  The readout stage takes input
    columns through the pre-squeeze and the mixer and contracts the probe,
    sector by sector from a recurrence with no eigendecomposition
    (``_readout_columns``); each sector is used as it is made and dropped,
    so no array holds n_work^3 elements, nor any band of the mixer.  The
    outcome stage (``_finish``) applies the feedback and the back-squeeze
    as the one Gauss-rule stage (_stage), whose columns at each outcome
    are the readout there, sum_p chi_p(x) vc[p], and which reads only the
    rows asked for.  The readout of the leading ``cutoff`` unit columns is
    made once per pre-squeeze flag and serves both ``family`` and
    ``completeness_defect``; the pre-squeeze is the same stage at t = 0
    on the columns it is given (``_presqueeze``).
    Every stage is covariant with the working quadrature, so with R_phi =
    diag(e^{ik phi}) the operators are R_phi Omega_0(x) R_phi^dag, Omega_0
    the scheme at phi = 0 with the probe read at the offset phi_probe -
    phi.  The builder composes in that frame, where the squeezes and the
    feedback are real, and so are the probe amplitudes and functions when
    phi_probe = phi; every array keeps the dtype of its data, and R_phi
    enters only at the ends.
    Each pre-squeeze flag is composed in the frame of a balanced squeeze
    S(tau) (x) S(tau), tau from _frame_squeeze.  It commutes with the
    real mixer, which keeps a^2 + b^2 (Braunstein, Phys. Rev. A 71, 055801
    (2005)), so with s_p = ln(sigma)/2

        U (S(r_in) (x) S(s_p)) = (S(tau) (x) S(tau)) U (S(r_in - tau) (x)
                                                         S(s_p - tau)):

    the pre-squeeze is S(r_in - tau), skipped where that is 0; the probe
    is squeezed_vacuum(sigma e^{-2 tau}), and its functions are
    chi_p(e^{-tau} x) e^{-tau/2}; the signal's S(tau) joins the feedback
    and the back-squeeze as one stage, S(s_b) D(t) S(tau) = S(s_b + tau)
    D(e^{-tau} t).  At sigma 2 the probe falls from 69 levels to the
    vacuum (eta 0.5, 0.8) or to 37 (eta 0.2), so the readout is cheaper
    and the working space holds the composition exactly.  tau stops at
    2 r_in so that the input squeeze |r_in - tau| never grows, and at
    ln(sigma)/2 so that the probe's never does; where tau = 0 (sigma <= 1,
    the pre-squeeze off, phi_probe != phi) the lab-frame arithmetic runs
    unchanged.  ``_levels`` and ``_amps`` hold the lab-frame probe.
    It is the subject that verify and sweep check against the target.  At
    phi_probe != phi it composes with the complex probe read at the
    offset, with no rotated frame, so it is an independent reference for
    the chain that composed_reductions runs there.  ``warnings`` holds
    those the lab-frame probe's constructor attached.  Completeness sums
    mask feedback and back-squeeze off: those unitary dressings, and the
    frame's S(tau) on the signal, cancel in the Born rule at working
    size.
    """

    def __init__(self, params: SchemeParams, margin: float = 2.5):
        _check_margin(margin)
        self.params = params
        self.n_work = max(params.cutoff,
                          int(math.ceil(margin * params.cutoff)))
        self._levels, self._amps, self.warnings = self._probe(0.0)
        tau = _frame_squeeze(params, True)
        # pre-squeeze flag -> (tau, probe amplitudes) of its frame
        self._frames = {False: (0.0, self._amps),
                        True: (tau, self._probe(tau)[1] if tau
                               else self._amps)}
        self._units = {}  # pre-squeeze flag -> readout of unit columns

    def _probe(self, tau: float):
        """(levels, amplitudes, warnings) of the probe S(ln(sigma)/2 - tau)
        |0> on n_work levels, read at the offset phi_probe - phi: the
        levels kept, |amplitude| above the floor, and the amplitudes up to
        the last of them, those below it set to 0.  At tau = 0 the variance
        is sigma itself, not exp(ln sigma), which may differ in its last
        bit."""
        p = self.params
        sigma = math.exp(math.log(p.sigma) - 2.0 * tau) if tau else p.sigma
        probe = squeezed_vacuum(sigma, self.n_work,
                                phase=p.phi_probe - p.phi)
        kept = np.abs(probe.amplitudes) > _PROBE_FLOOR
        levels = np.flatnonzero(kept)
        amps = np.where(kept, probe.amplitudes, 0.0)[:levels[-1] + 1]
        return (levels, amps if np.any(amps.imag) else amps.real,
                probe.warnings)

    def _presqueeze(self, cols: np.ndarray) -> np.ndarray:
        """S(r_pre - tau) cols on the n_work rows, tau the frame's squeeze:
        the stage of _squeeze_displace at t = 0, or the columns padded with
        zero rows where r_pre = tau."""
        r = presqueeze_param(self.params.eta) - self._frames[True][0]
        if not r:
            return np.pad(cols, ((0, self.n_work - len(cols)), (0, 0)))
        return _squeeze_displace(r, [0.0], cols, self.n_work)[0]

    def _chi(self, xs: np.ndarray, tau: float) -> np.ndarray:
        """The conjugated probe quadrature functions of the frame tau at the
        outcomes, chi_p(e^{-tau} x) e^{-tau/2}, shaped (len(xs), n_work),
        read at the offset phi_probe - phi."""
        chi = fock._hermite_functions(
            math.exp(-tau) * np.asarray(xs, dtype=float), self.n_work)
        chi *= math.exp(-0.5 * tau)
        offset = self.params.phi_probe - self.params.phi
        if offset:
            chi = chi * np.exp(-1j * offset * np.arange(self.n_work))
        return chi

    def _readout_columns(self, cols: np.ndarray,
                         amps: np.ndarray) -> np.ndarray:
        """vc[p, m, c] = sum_n V[m, p, n] cols[n, c], shape (n_work, n_work,
        cols.shape[1]), for V[m, p, n] = <m, p|U_mix|n, probe> with m, p,
        n < n_work and the probe amplitudes ``amps``, so the readout is
        W(x) cols = sum_p chi_p(x) vc[p].

        The mixer conserves the total m + p = n + k, so sector s of
        _mixer_sectors alone gives

            vc[s - m, m] = sum_k X_s[m, k] amp_k cols[s - k]

        on the rows lo <= m <= min(s, n_work - 1), lo = max(0, s - n_work +
        1), and the levels lo <= k <= min(s, k_max): one product per
        sector, written as the sector is made.  It runs over every level k,
        those below the floor with amplitude 0, on views: at sigma 0.05,
        margin 4 the zero odd levels double its flops, and it still ran as
        fast as gathering the kept levels (medians 13.4-19.2 against
        13.2-20.8 ms per readout over four runs, 2 vCPUs, 1 BLAS thread)
        and faster at sigma 1 (2.4 against 4.0 ms).  The real X_s acts on
        the float view of complex columns, never cast; real columns and
        amplitudes give a real vc."""
        n = self.n_work
        k_max = len(amps) - 1
        pad = np.zeros((k_max + n, cols.shape[1]), dtype=cols.dtype)
        pad[k_max:] = cols  # pad[k_max + i] = cols[i], 0 for i < 0
        vc = np.zeros((n, n, cols.shape[1]),
                      dtype=np.result_type(amps, cols))
        flat = vc.reshape(n * n, -1)  # row p n + m is vc[p, m]
        for s, x in _mixer_sectors(self.params.eta, n, k_max + 1, n + k_max):
            lo, hi, kk = max(0, s - n + 1), min(s, n - 1), min(s, k_max) + 1
            g = amps[lo:kk, None] \
                * pad[k_max + s - kk + 1:k_max + s - lo + 1][::-1]
            y = x[lo:hi + 1, lo:kk] @ g.view(float)
            f0 = (s - hi) * n + hi  # vc[s - m, m] for m = hi down to lo
            flat[f0:f0 + (hi - lo + 1) * (n - 1):n - 1] = \
                y.view(vc.dtype)[::-1]
        return vc

    def _unit_readout(self, pre_on: bool, width: int) -> np.ndarray:
        """The readout at phi = 0 of the leading max(width, cutoff) unit
        columns, made once per pre-squeeze flag (or again, wider, when a
        wider one is asked for)."""
        vc = self._units.get(pre_on)
        if vc is None or vc.shape[2] < width:
            width = max(width, self.params.cutoff)
            cols = self._presqueeze(np.eye(width)) if pre_on \
                else np.eye(self.n_work, width)
            vc = self._units[pre_on] = self._readout_columns(
                cols, self._frames[pre_on][1])
        return vc

    def _finish(self, xs: np.ndarray, mask: StageMask, vc: np.ndarray,
                rows: Optional[int] = None) -> np.ndarray:
        """The probe readout at the outcomes, then the feedback displacement
        and the back-squeeze as one stage (_squeeze_displace, with t = 0 or
        s = 0 for a masked-off one), of a readout vc, at phi = 0, shape
        (len(xs), rows, vc.shape[2]); ``rows`` defaults to all.  The stage
        takes the readout at each outcome as its columns, sum_p chi_p(x)
        vc[p], formed for one outcome chunk at a time."""
        n, c = self.n_work, vc.shape[2]
        rows = n if rows is None else rows
        tau = self._frames[mask.pre_squeeze][0]
        chi = self._chi(xs, tau)
        if not (mask.feedback or mask.back_squeeze or tau):
            return (chi @ vc[:, :rows].reshape(n, -1)).reshape(len(xs), rows,
                                                              c)
        s, t = _compensation(self.params, xs, mask)
        # S(s) D(t) S(tau) = S(s + tau) D(e^{-tau} t)
        return _squeeze_displace(s + tau, math.exp(-tau) * t, vc, rows,
                                 lead=chi)

    def family(self, grid: Optional[OutcomeGrid] = None,
               mask: StageMask = StageMask()) -> ReductionOperatorFamily:
        g = grid if grid is not None else self.params.grid
        c = self.params.cutoff
        # the readout does not depend on the outcome: one serves every
        # outcome chunk of the stage
        vc = self._unit_readout(mask.pre_squeeze, c)[:, :, :c]
        stack = self._finish(g.points, mask, vc, c)
        m = np.arange(c)
        ops = stack * np.exp(1j * self.params.phi * (m[:, None] - m))
        origin = "raw-interaction" if mask == StageMask.raw() else "compensated"
        return ReductionOperatorFamily(g, ops, origin, self.warnings)

    def completeness_defect(self, grid: OutcomeGrid, block: int = 16,
                            mask: StageMask = StageMask()) -> float:
        """Largest deviation from the identity of the probability operators
        summed over ``grid``, on the leading ``block`` Fock levels; only the
        pre-squeeze flag of ``mask`` matters (see the class docstring).

        With vc the readout of the unit columns (W(x) = sum_p chi_p(x)
        vc[p]), sum_x w_x W(x)^dag W(x) = sum_m sum_{p,q} G[p, q]
        vc[p, m]^dag vc[q, m] for the n_work x n_work Gram matrix G =
        chi^dag diag(w) chi of the probe functions of the flag's frame: a
        product per row m of the readout, taken over blocks of rows of the
        shared readout, so no (len(grid), n_work, block) stack forms and no
        copy of the readout.  The sum is taken at phi = 0: R_phi moves no
        modulus of its deviation."""
        vc = self._unit_readout(mask.pre_squeeze, block)[:, :, :block]
        chi = self._chi(grid.points, self._frames[mask.pre_squeeze][0])
        gram = (chi.conj().T * grid.weights()) @ chi
        acc = np.zeros((block, block), dtype=np.result_type(gram, vc))
        step = max(1, _STACK_ELEMENTS // (self.n_work * block))
        for i in range(0, self.n_work, step):
            rows = vc[:, i:i + step].transpose(1, 0, 2)  # (m, p, c) view
            acc += np.sum(rows.conj().transpose(0, 2, 1) @ (gram @ rows),
                          axis=0)
        return float(np.max(np.abs(acc - np.eye(block))))


# ---------------------------------------------------------------------------
# pipeline verification


@dataclass(frozen=True)
class PipelineResult:
    """Comparison of the composed pipeline against its analytic target."""

    params: SchemeParams
    mask: StageMask
    family: ReductionOperatorFamily
    target: ReductionOperatorFamily
    block: int
    max_deviation: float
    per_outcome_deviation: np.ndarray
    pom_deviation: float
    completeness_defect_family: float
    completeness_grid: OutcomeGrid


def build_scheme_family(params: SchemeParams,
                        feedback: Optional[FeedbackSpec] = None,
                        compensate: StageMask = StageMask(),
                        margin: float = 2.5, block: int = 16,
                        completeness_grid: Optional[OutcomeGrid] = None,
                        ) -> PipelineResult:
    """Compose the pipeline and compare it against the analytic Gaussian
    quadrature-kernel target of width Delta = sqrt(eta sigma)/2.

    The deviation is the largest entrywise difference per outcome on the
    leading ``block`` Fock levels, with no phase fitted; the POM deviation
    compares the composed family's probability operators with the target's
    on the same block; the family's completeness defect is evaluated on
    ``completeness_grid``, by default step 0.02 over [-w, w] with w =
    max(8, 8 Delta): a fixed [-8, 8] would cut the kernel's tails once
    Delta passes 1.  All numbers are reported whether or not they
    meet any tolerance; the caller adjudicates.
    """
    feedback = feedback if feedback is not None else FeedbackSpec.ideal()
    if feedback.mode != "ideal":
        raise ParameterError(
            "the operator-family identity is defined for ideal feedback; "
            "finite-lo feedback acts as a channel on states - use the "
            "monte-carlo trial engine for it")
    builder = SchemeFamilyBuilder(params, margin)
    family = builder.family(params.grid, compensate)
    target = vn_target_family(params.delta, params.grid, params.cutoff,
                              phase=params.phi)
    per_x = np.max(np.abs(family.operators[:, :block, :block]
                          - target.operators[:, :block, :block]), axis=(1, 2))
    pom_dev = float(np.max(np.abs(
        family.pom().matrices[:, :block, :block]
        - target.pom().matrices[:, :block, :block])))
    half = max(8.0, 8.0 * params.delta)
    cgrid = completeness_grid if completeness_grid is not None \
        else OutcomeGrid.from_range(-half, half, 0.02)
    cf = builder.completeness_defect(cgrid, block, compensate)
    return PipelineResult(
        params=params, mask=compensate, family=family, target=target,
        block=block, max_deviation=float(np.max(per_x)),
        per_outcome_deviation=per_x, pom_deviation=pom_dev,
        completeness_defect_family=cf, completeness_grid=cgrid)


# ---------------------------------------------------------------------------
# mixer factorization verification


@dataclass(frozen=True)
class BchReport:
    """Numerical adjudication of the mixer's Gauss factorization

        U_mix = exp(2ic y X) . (S_sys(-ln(eta)/2) (x) S_probe(ln(eta)/2))
                             . exp(-2ic x Y),   c = sqrt((1-eta)/eta),

    (lowercase quadratures on the signal, uppercase on the probe) together
    with the su(2) commutators of the generators J+ = 2i y X, J- = 2i x Y,
    Jz = i(X Y - x y), and the equality of the mixer's ladder-operator and
    quadrature-pair generator forms.
    """

    eta: float
    cutoff: int
    block_total: int
    working_cutoff: int
    factorization_deviation: float
    su2_plus_minus_deviation: Optional[float]
    su2_z_plus_deviation: Optional[float]
    su2_z_minus_deviation: Optional[float]
    generator_form_deviation: Optional[float]
    factor_identity_deviations: Tuple[float, float, float]


def _mode_quadratures(cutoff: int):
    """The quadratures x, y of the signal and X, Y of the probe as one-mode
    cutoff x cutoff matrices; each joint operator is a sum of Kronecker
    terms of these, so no cutoff^2 x cutoff^2 matrix forms."""
    x = make_quadrature(cutoff, 0.0)
    y = make_quadrature(cutoff, 0.5 * math.pi)
    return x, y, x, y


def _kron_max(terms) -> float:
    """Largest |entry| of sum coef A (x) B over the whole joint space.  Only
    an entry (i, j) that some A holds and (p, q) that some B holds can be
    nonzero, so the sum is taken on those alone."""
    coefs, mats_a, mats_b = zip(*terms)
    ij = np.nonzero(sum(np.abs(a) for a in mats_a))
    pq = np.nonzero(sum(np.abs(b) for b in mats_b))
    held = sum(c * np.multiply.outer(a[ij], b[pq]) for c, a, b in terms)
    return float(np.max(np.abs(held), initial=0.0))


def _low_total_pairs(cutoff: int, block_total: int) -> np.ndarray:
    """Row-major (m, p) pairs of the cutoff^2 joint space with m + p <=
    block_total, shaped (k, 2)."""
    m = np.arange(cutoff)
    return np.argwhere(m[:, None] + m[None, :] <= block_total)


def _apply_mixer_sectors(eta: float, vecs: np.ndarray,
                         max_total: int) -> np.ndarray:
    """Apply the mixer to joint vectors shaped (n, n, k) that live in the
    sectors of total occupancy <= max_total, sector by sector from the
    recurrence of _mixer_sectors; the mixer conserves the total, so the
    higher sectors are never formed."""
    n = vecs.shape[0]
    out = np.zeros_like(vecs, dtype=complex)
    for s, x in _mixer_sectors(eta, n, n, min(max_total, 2 * n - 2) + 1):
        m = np.arange(max(0, s - n + 1), min(s, n - 1) + 1)
        out[m, s - m, :] = x[np.ix_(m, m)] @ vecs[s - m, m, :]
    return out


def _parity_quadrature_basis(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The eigenvalues lam >= 0 of the quadrature x truncated to n levels,
    ascending, shape (h,) with h = ceil(n/2), and its parity-adapted
    eigenbasis f, shape (n, h).  The eigenvectors of +-lam_l are (e_l +-
    o_l)/sqrt(2) with e_l on the even levels and o_l on the odd ones, and
    e_l, o_l are the singular vectors u_l, v_l of x[0::2, 1::2]
    (fock._x0_svd): f[0::2] and f[1::2] are orthonormal bases of the even
    and of the odd levels with x e_l = lam_l o_l and x o_l = lam_l e_l.
    For odd n the zero eigenvector is purely even and has no partner; its
    column, last, is zero on the odd rows, which keeps both halves h wide."""
    u, s, vt = fock._x0_svd(n)
    k = len(s)
    f = np.zeros((n, (n + 1) // 2))
    f[0::2, :k] = u[:, k - 1::-1]
    f[1::2, :k] = vt[::-1].T
    if n % 2:
        f[0::2, k] = u[:, k]
    return np.concatenate((s[::-1], np.zeros(n % 2))), f


def _corner(rows: np.ndarray, v: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ v[j] @ cols^T for every j of a stack v shaped (k, h, h), the
    signal mode on axis 1 and the probe mode on axis 2.  A complex v meets
    the real rows on its float view, so no complex copy of them forms;
    cols^T is made contiguous, as the stacked matmul ran about 1.5x slower
    on the transposed view (1 BLAS thread, k = 36, h = 70)."""
    return (np.matmul(rows, v.view(float)).view(v.dtype)
            @ np.ascontiguousarray(cols.T))


def verify_bch_factorization(eta: float, cutoff: int = 40,
                             block_total: int = 10,
                             working_cutoff: Optional[int] = None,
                             check_su2: bool = True) -> BchReport:
    """Check the mixer's three-factor Gauss factorization and the su(2)
    algebra of its generators.

    The two sides are applied to every joint basis vector with total
    occupancy <= block_total and compared on the rows of the same total,
    inside a working space of ``working_cutoff`` levels per mode (default
    ceil(cutoff max(3.5, 0.7/eta))): the factorization is an operator
    identity, but products of individually truncated exponentials corrupt
    low blocks, so the faithful route evaluates each factor in its own
    eigenbasis.
    block_total is at most cutoff - 2: from total cutoff - 1 on, the su(2)
    products reach the truncation edge of the cutoff^2 joint space.

    Only what the comparison reads is formed, in joint-parity sectors.
    With b = block_total + 1 the basis and the compared rows both live in
    the (b, b) corner of the joint space, and the mixer side never leaves
    it, as it conserves the total.  The other side runs in the parity
    bases e_l, o_l of the x eigenvectors (_parity_quadrature_basis), h =
    ceil(n_w/2) wide, in which every factor is real up to a phase per
    parity:

    - the y basis is D Q with D = diag(i^k), which is a real sign on the
      even levels and i times one on the odd levels;
    - the squeezes are real and keep parity, so each middle factor (Q^T,
      the squeeze and the D between, per mode) folds into two real h x h
      blocks, the odd one times -i on the signal and +i on the probe;
    - exp(-+2ic x Y) acts on the pair (e_l, o_l) (x) (e_m, o_m) as
      cos(t) -+ i sin(t) sigma_x (x) sigma_x, t = 2c lam_l lam_m: it only
      couples the sectors ee with oo and eo with oe.

    So the basis vectors split by the parity of m + p, and each class is
    carried in two real (k_class, h, h) stacks: its slot A (signal even)
    and its slot B (signal odd) stored as -iB, the real and the imaginary
    part of one complex stack z = A + B.  Each Gauss factor multiplies z by
    exp(-+i t) elementwise, as A + B is the combination in which it is
    diagonal; the middle factors act on the two parts with their real
    blocks.  Every
    other phase is a scalar per basis vector, per class or per compared
    row, and no product runs at working size n_w.

    ``check_su2=False`` skips the commutator and generator-form checks (the
    only eta-independent part of the report), leaving those report fields
    None - useful when scanning eta.
    """
    _check_transmissivity(eta)
    if cutoff < 40:
        raise ParameterError(
            f"factorization check wants cutoff >= 40, got {cutoff}")
    if not 0 <= block_total <= cutoff - 2:
        raise ParameterError(
            f"factorization check wants 0 <= block_total <= cutoff - 2 "
            f"= {cutoff - 2}, got {block_total}")
    # small transmissivities need extra working room: the factored squeeze
    # S(-ln(eta)/2) spreads a level over e^{2|r|} = 1/eta times as many, so
    # the room grows as 0.7/eta below eta 0.2
    n_w = working_cutoff if working_cutoff is not None \
        else int(math.ceil(cutoff * max(3.5, 0.7 / eta)))
    if n_w <= block_total:
        raise ParameterError(
            f"factorization check wants working_cutoff > block_total "
            f"= {block_total}, got {n_w}")
    b = block_total + 1
    pairs = _low_total_pairs(b, block_total)
    m, p = pairs.T
    basis = np.zeros((len(pairs), b, b))
    basis[np.arange(len(pairs)), m, p] = 1.0

    def low_dev(v, ref):  # over the compared rows of stacks (k, b, b)
        return float(np.max(np.abs(v[:, m, p] - ref[:, m, p])))

    c = math.sqrt((1.0 - eta) / eta)
    lam, f = _parity_quadrature_basis(n_w)
    e = np.exp(-2j * c * np.outer(lam, lam))  # exp(-2ic x Y) per pair
    d = np.array([1.0, 1j, -1.0, -1j])[np.arange(n_w) % 4]
    sgn = d.real + d.imag  # D is sgn on even levels and i sgn on odd ones
    # S(-r) = S(r)^T, as S(r) is real orthogonal: the probe's squeeze is
    # the explicit transpose of the signal's
    sq_sys = _squeeze_displace(-0.5 * math.log(eta), [0.0], np.eye(n_w),
                               n_w)[0]
    sq_probe = sq_sys.T
    # Q^T D^dag S_sys Q and Q^T S_probe D Q per parity: real, bar the -i
    # and +i of the odd blocks
    mid_sys = [f[k::2].T @ (sgn[k::2, None] * sq_sys[k::2, k::2]) @ f[k::2]
               for k in (0, 1)]
    mid_probe = [f[k::2].T @ (sq_probe[k::2, k::2] * sgn[k::2]) @ f[k::2]
                 for k in (0, 1)]

    def gather(z, cls):  # the compared rows: slot A is Re z, B = i Im z
        out = np.zeros((len(z), b, b), dtype=complex)
        out[:, 0::2, cls::2] = _corner(f[0:b:2], z, f[cls:b:2]).real
        out[:, 1::2, 1 - cls::2] = 1j * _corner(f[1:b:2], z,
                                                f[1 - cls:b:2]).imag
        return out

    # exp(-2ic x Y) = (1 (x) D) Q^{(x)2} phase Q^{T(x)2} (1 (x) D^dag), and
    # exp(+2ic y X) the same with D on the signal mode and phase conjugated;
    # each factor alone is compared too, for the eta -> 1 limit where all
    # become identity.  The basis vectors are real in the parity bases, so
    # there the second factor alone gives the conjugate of the first.
    g_yx, g_xy, right = (np.empty(basis.shape, complex) for _ in range(3))
    for cls in (0, 1):
        # the class's vectors, those that start in slot A first; z = (A +
        # B) / start holds A / start and -iB / start, both real, as its
        # real and imaginary parts (start = -i for a start in slot B)
        cols = np.flatnonzero((m + p) % 2 == cls)
        cols = cols[np.argsort(m[cols] % 2, kind="stable")]
        mc, pc = m[cols], p[cols]
        k_a = np.count_nonzero(mc % 2 == 0)
        x = f[mc][:, :, None] * f[pc][:, None, :]
        z = np.empty(x.shape, dtype=complex)
        np.multiply(x[:k_a], e, out=z[:k_a])
        np.multiply(x[k_a:], 1j * e, out=z[k_a:])
        start = np.where(mc % 2 == 0, 1.0, -1j)[:, None, None]
        alone = gather(z, cls) * start
        g_yx[cols] = alone * d[pc].conj()[:, None, None] * d[:b]
        g_xy[cols] = alone.conj() * d[mc].conj()[:, None, None] * d[:b, None]
        # the middle factors: the signal and probe phases of slot A are
        # 1 and i^cls, those of slot B -i and i^(1-cls), so both slots
        # carry i^cls once B's block takes the sign (-1)^cls
        z.real = _corner(mid_sys[0], np.ascontiguousarray(z.real),
                         mid_probe[cls])
        z.imag = _corner((-1) ** cls * mid_sys[1],
                         np.ascontiguousarray(z.imag), mid_probe[1 - cls])
        z *= e.conj()
        right[cols] = (gather(z, cls) * start * 1j ** cls
                       * d[pc].conj()[:, None, None] * d[:b, None])
    # the squeezes alone map |m, p> to the outer product of their columns
    devs = (low_dev(g_yx, basis),
            low_dev(sq_sys[:b, m].T[:, :, None] * sq_probe[:b, p].T[:, None],
                    basis),
            low_dev(g_xy, basis))
    left = _apply_mixer_sectors(eta, basis.transpose(1, 2, 0), block_total)
    fac_dev = low_dev(left.transpose(2, 0, 1), right)

    su_pm = su_zp = su_zm = gen_dev = None
    if check_su2:
        # su(2) commutators of the factor generators on the compared block,
        # the pairs of total <= block_total.  Each generator moves the total
        # by at most 2, so every product there runs through the pairs t of
        # total <= block_total + 2 alone: each generator is a dense matrix
        # on t, filled from one-mode matrices, and each commutator two
        # matmuls on the compared rows and columns
        xs, ys, xp, yp = _mode_quadratures(cutoff)
        tm, tp = _low_total_pairs(cutoff, block_total + 2).T
        cmp = np.flatnonzero(tm + tp <= block_total)

        def on_t(terms):  # sum coef A (x) B on the pairs t
            return sum(c * a[tm[:, None], tm] * b[tp[:, None], tp]
                       for c, a, b in terms)

        one = np.eye(cutoff)
        j_plus = on_t([(2j, ys, xp)])
        j_minus = on_t([(2j, xs, yp)])
        j_z = on_t([(1j, one, xp @ yp), (-1j, xs @ ys, one)])

        def comm_max(g, h, rest):  # [g, h] - rest on the compared block
            comm = g[cmp] @ h[:, cmp] - h[cmp] @ g[:, cmp]
            return float(np.max(np.abs(comm - rest[np.ix_(cmp, cmp)])))

        su_pm = comm_max(j_plus, j_minus, 2.0 * j_z)
        su_zp = comm_max(j_z, j_plus, j_plus)
        su_zm = comm_max(j_z, j_minus, -j_minus)

        # ladder form a b^dag - a^dag b versus quadrature form 2i(y X - x Y)
        a = make_annihilation(cutoff)
        gen_dev = _kron_max([(1.0, a, a.conj().T), (-1.0, a.conj().T, a),
                             (-2j, ys, xp), (2j, xs, yp)])

    return BchReport(
        eta=eta, cutoff=cutoff, block_total=block_total, working_cutoff=n_w,
        factorization_deviation=fac_dev, su2_plus_minus_deviation=su_pm,
        su2_z_plus_deviation=su_zp, su2_z_minus_deviation=su_zm,
        generator_form_deviation=gen_dev,
        factor_identity_deviations=devs)


# ---------------------------------------------------------------------------
# exact Gaussian oracle of the whole scheme


class GaussianSchemeOracle:
    """Mean/covariance bookkeeping of the full pipeline for Gaussian
    inputs: an independent reference path sharing no Fock-space code."""

    def __init__(self, params: SchemeParams,
                 input_state: Optional[GaussianState] = None,
                 mask: StageMask = StageMask()):
        if input_state is None:
            input_state = vacuum_gaussian(1)
        if input_state.n_modes != 1:
            raise ParameterError("the scheme oracle takes a one-mode input")
        self.params = params
        self.mask = mask
        sys0 = input_state
        if mask.pre_squeeze:
            sys0 = squeeze_symplectic(presqueeze_param(params.eta),
                                      params.phi).apply(sys0)
        probe = squeeze_symplectic(0.5 * math.log(params.sigma),
                                   params.phi_probe).apply(vacuum_gaussian(1))
        joint = tensor_product(sys0, probe)
        self.joint_after = beam_splitter_symplectic(params.eta).apply(joint)

    def outcome_moments(self) -> Tuple[float, float]:
        """Mean and variance of the readout outcome."""
        return quadrature_statistics(self.joint_after, 1,
                                     self.params.phi_probe)

    def post_state(self, x: float) -> GaussianState:
        """Conditional signal state after the compensation stages."""
        _, reduced = condition_on_quadrature(self.joint_after, 1,
                                             self.params.phi_probe, x)
        state = reduced
        if self.mask.feedback:
            state = displacement_transform(
                feedback_displacement(x, self.params.eta,
                                      self.params.phi)).apply(state)
        if self.mask.back_squeeze:
            state = squeeze_symplectic(
                backsqueeze_param(self.params.eta,
                                  pre_squeezed=self.mask.pre_squeeze),
                self.params.phi).apply(state)
        return state

    def post_quadrature_moments(self, x: float,
                                phase: Optional[float] = None,
                                ) -> Tuple[float, float]:
        ph = self.params.phi if phase is None else phase
        return quadrature_statistics(self.post_state(x), 0, ph)
