"""Dense reference forms of the Fock-space operators, kept as test oracles.

The library evaluates every stage exactly to rounding without a matrix
exponential or a dense joint-space matrix.  The forms here are the
straightforward ones: truncated ``expm`` unitaries, the squeeze as its
generator's exponential in an extended space, the mixer assembled from
per-sector ``expm`` blocks, Kronecker-product joint operators, and the
reduction family of an indirect measurement contracted from a dense joint
unitary.  No module of the package imports this one.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import eval_genlaguerre, gammaln

from quadmeas.errors import DimensionMismatchError, ParameterError
from quadmeas.fock import (
    Operator,
    StateVector,
    _check_cutoff,
    _check_transmissivity,
    guard_level,
    make_annihilation,
    quadrature_eigenvector_matrix,
    quadrature_spectrum,
)
from quadmeas.kernel import (
    OutcomeDensity,
    OutcomeGrid,
    PomDensity,
    ReductionOperatorFamily,
    quadrature_density,
    reduce_state,
)

# ---------------------------------------------------------------------------
# one-mode operators


def make_creation(cutoff: int) -> np.ndarray:
    return make_annihilation(cutoff).conj().T


def make_number(cutoff: int) -> np.ndarray:
    cutoff = _check_cutoff(cutoff)
    return np.diag(np.arange(cutoff, dtype=float)).astype(complex)


def make_phase_rotation(cutoff: int, phase: float) -> np.ndarray:
    """exp(i phase n): rotates the quadrature angle by +phase."""
    cutoff = _check_cutoff(cutoff)
    return np.diag(np.exp(1j * phase * np.arange(cutoff)))


def make_displacement(alpha: complex, cutoff: int) -> Operator:
    """D(alpha) = expm(alpha a_dag - conj(alpha) a) on the truncated basis.

    The matrix is exactly unitary by construction (expm of an anti-Hermitian
    truncation), at the price of faithfulness near the truncation boundary;
    a guard warning is attached when |alpha|^2 reaches the guard band.
    """
    cutoff = _check_cutoff(cutoff)
    a = make_annihilation(cutoff)
    gen = alpha * a.conj().T - np.conjugate(alpha) * a
    warn: Tuple[str, ...] = ()
    if abs(alpha) ** 2 > guard_level(cutoff):
        warn = (f"displacement |alpha|^2 = {abs(alpha)**2:.3g} exceeds the "
                f"guard level {guard_level(cutoff)} of a cutoff-{cutoff} basis",)
    return Operator(expm(gen), warn, unitary_flag=True)


def laguerre_displacement(alpha, n: int) -> np.ndarray:
    """Closed-form displacement elements, the oracle for the library's
    Gauss-rule stage: <m|D(alpha)|k> = sqrt(q!/p!) e^{-|alpha|^2/2}
    L_q^{(p-q)}(|alpha|^2) times alpha^(m-k) below the diagonal and
    (-conj alpha)^(k-m) above, with p = max(m, k), q = min(m, k); an array
    of amplitudes gives the stack, shape alpha.shape + (n, n)."""
    alpha = np.asarray(alpha, dtype=complex)[..., None, None]
    m = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    p, q = np.maximum(m, k), np.minimum(m, k)
    aa = np.abs(alpha) ** 2
    pref = np.exp(0.5 * (gammaln(q + 1) - gammaln(p + 1)) - 0.5 * aa)
    base = np.where(m >= k, np.power(alpha, p - q, dtype=complex),
                    np.power(-np.conjugate(alpha), p - q, dtype=complex))
    return pref * eval_genlaguerre(q, p - q, aa) * base


def make_squeeze(r: float, cutoff: int, phase: float = 0.0) -> Operator:
    """S(r, phase) = expm((r/2)(a_dag^2 e^{2i phase} - a^2 e^{-2i phase})).

    Positive r stretches the ``phase`` quadrature: S_dag x S = e^r x at
    phase=0.  Exactly unitary on the truncated basis; a guard warning is
    attached for |r| > 2.5 where the truncated action is untrustworthy.
    """
    cutoff = _check_cutoff(cutoff)
    a = make_annihilation(cutoff)
    a2 = a @ a
    gen = 0.5 * r * (a2.conj().T * np.exp(2j * phase) - a2 * np.exp(-2j * phase))
    warn: Tuple[str, ...] = ()
    if abs(r) > 2.5:
        warn = (f"squeeze parameter |r| = {abs(r):.3g} > 2.5 exceeds the "
                f"guard threshold for a truncated basis",)
    return Operator(expm(gen), warn, unitary_flag=True)


def _tridiagonal_expm_columns(e, cols, n_rows=None):
    """Columns ``cols`` of exp(G), leading ``n_rows`` rows (default all),
    for the real antisymmetric tridiagonal G with G[k, k+1] = e[k] =
    -G[k+1, k]: with G = D (iT) D^-1, D = diag(i^k), and T = q diag(lam)
    q^T the symmetric tridiagonal of off-diagonal e,

        exp(G)[a, b] = Re(i^(a-b) sum_l q[a, l] q[b, l] e^(i lam_l)),

    two real products, exact to rounding for any norm of G."""
    lam, q = eigh_tridiagonal(np.zeros(len(e) + 1), e)
    cols = np.asarray(cols)
    q_cols = q[cols].T
    q_rows = q[:n_rows]
    c = (q_rows * np.cos(lam)) @ q_cols
    s = (q_rows * np.sin(lam)) @ q_cols
    shift = (np.arange(len(q_rows))[:, None] - cols[None, :]) % 4
    return np.choose(shift, (c, -s, -c, s))


def eigen_route_squeeze(r: float, n: int, phase: float = 0.0) -> np.ndarray:
    """S(r) on n levels by its generator (r/2)(a^dag^2 - a^2): each parity
    block is the exponential of a real antisymmetric tridiagonal, taken in
    an extended space of n e^{2|r|} + 40 levels, so that truncating the
    generator there leaves the kept corner untouched.  A pump phase enters
    as the element phases e^{i(m-k) phase}.  It shares no code with the
    library's Gauss-rule squeeze."""
    n_ext = int(math.ceil(n * math.exp(2.0 * abs(r)))) + 40
    block = np.zeros((n, n))
    for parity in (0, 1):
        lower = np.arange(parity, n_ext - 2, 2, dtype=float)
        kept = (n - parity + 1) // 2
        block[parity::2, parity::2] = _tridiagonal_expm_columns(
            -0.5 * r * np.sqrt((lower + 1.0) * (lower + 2.0)),
            np.arange(kept), kept)
    if phase != 0.0:
        ph = np.exp(1j * phase * np.arange(n))
        block = ph[:, None] * block * ph.conj()
    return block


def function_of_quadrature(f, cutoff: int, phase: float = 0.0) -> np.ndarray:
    """Spectral calculus f(x_phase) from quadrature_spectrum.

    Only trustworthy when f is resolved by the eigenvalue spacing of the
    truncated operator (~ pi / (2 sqrt(cutoff)) near the center).
    """
    evals, vecs = quadrature_spectrum(cutoff, phase)
    return (vecs * np.asarray([f(v) for v in evals])) @ vecs.conj().T


# ---------------------------------------------------------------------------
# the mixer and the joint space (system index slowest: element
# m * probe_dim + q is |m>_sys |q>_probe)


def _bs_sector_blocks(eta: float, na: int, nb: Optional[int] = None):
    """Yield (rows_a, sector_total, block) for the two-mode mixer at
    intensity transmissivity eta.

    The generator theta*(a b_dag - a_dag b), theta = atan(sqrt((1-eta)/eta)),
    conserves total photon number, so the unitary is block-diagonal over
    sectors of fixed m+q = s; each block is scipy's expm of a small real
    antisymmetric tridiagonal matrix (off the exact block by up to 5.5e-14
    at eta 0.5 and s <= 36, against 40-digit mpmath).
    ``block[i, j]`` couples |rows_a[i], s-rows_a[i]> <- |rows_a[j], s-rows_a[j]>.
    """
    eta = _check_transmissivity(eta)
    nb = na if nb is None else nb
    theta = math.atan(math.sqrt((1.0 - eta) / eta))
    for s in range(na + nb - 1):
        m = np.arange(max(0, s - (nb - 1)), min(s, na - 1) + 1)
        d = len(m)
        if d == 1:
            yield m, s, np.ones((1, 1))
            continue
        g = np.zeros((d, d))
        mm = m[1:].astype(float)
        amp = theta * np.sqrt(mm) * np.sqrt(s - mm + 1.0)
        g[np.arange(d - 1), np.arange(1, d)] = amp
        g[np.arange(1, d), np.arange(d - 1)] = -amp
        yield m, s, expm(g)


def make_beam_splitter(eta: float, cutoff: int) -> Operator:
    """Two-mode mixer U = expm(theta (a b_dag - a_dag b)) with
    cos(theta) = sqrt(eta), on the flattened joint basis (system slowest).

    Heisenberg action: U_dag a U = sqrt(eta) a - sqrt(1-eta) b and
    U_dag b U = sqrt(1-eta) a + sqrt(eta) b.  Assembled exactly from the
    photon-number-conserving sector blocks.
    """
    cutoff = _check_cutoff(cutoff)
    u = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for m, s, block in _bs_sector_blocks(eta, cutoff):
        idx = m * cutoff + (s - m)
        u[np.ix_(idx, idx)] = block
    return Operator(u.astype(complex), unitary_flag=True)


@dataclass(frozen=True)
class JointState:
    """Pure state of the system+probe pair, system index slowest.

    ``amplitudes`` is stored flat with length sys_cutoff * probe_cutoff;
    ``as_matrix()`` reshapes to (sys_cutoff, probe_cutoff).
    """

    amplitudes: np.ndarray
    sys_cutoff: int
    probe_cutoff: int
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amp.shape[0] != self.sys_cutoff * self.probe_cutoff:
            raise DimensionMismatchError(
                "joint amplitudes have length %d, expected %d * %d"
                % (amp.shape[0], self.sys_cutoff, self.probe_cutoff))
        object.__setattr__(self, "amplitudes", amp)

    def as_matrix(self) -> np.ndarray:
        return self.amplitudes.reshape(self.sys_cutoff, self.probe_cutoff)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def joint_state(sys_state: StateVector, probe_state: StateVector) -> JointState:
    amp = np.kron(sys_state.amplitudes, probe_state.amplitudes)
    return JointState(amp, sys_state.cutoff, probe_state.cutoff,
                      sys_state.warnings + probe_state.warnings)


def joint_operator(op_sys: np.ndarray, op_probe: np.ndarray) -> np.ndarray:
    """kron with the system factor slowest, matching JointState ordering."""
    return np.kron(op_sys, op_probe)


def partial_trace(joint: np.ndarray, sys_cutoff: int, probe_cutoff: int,
                  keep: str = "system") -> np.ndarray:
    """Trace a flattened (sys*probe, sys*probe) density matrix down to one mode."""
    if joint.shape != (sys_cutoff * probe_cutoff, sys_cutoff * probe_cutoff):
        raise DimensionMismatchError(
            f"joint matrix shape {joint.shape} does not match "
            f"{sys_cutoff} x {probe_cutoff} modes")
    r = joint.reshape(sys_cutoff, probe_cutoff, sys_cutoff, probe_cutoff)
    if keep == "system":
        return np.einsum("mqnq->mn", r)
    if keep == "probe":
        return np.einsum("mqmr->qr", r)
    raise ParameterError(f"keep must be 'system' or 'probe', got {keep!r}")


# ---------------------------------------------------------------------------
# indirect measurement from a dense joint unitary


def reduction_from_interaction(joint_unitary, probe: StateVector,
                               grid: OutcomeGrid, measured_phase: float = 0.0,
                               origin: str = "raw-interaction",
                               ) -> ReductionOperatorFamily:
    """Reduction family of an indirect measurement: couple the system to a
    probe prepared in ``probe`` via ``joint_unitary`` (system index slowest),
    then project the probe on quadrature eigenvectors at ``measured_phase``:

        Omega(x) = (I tensor <x|) U (I tensor |probe>).
    """
    u = joint_unitary.matrix if isinstance(joint_unitary, Operator) \
        else np.asarray(joint_unitary)
    n_probe = probe.cutoff
    if u.shape[0] % n_probe != 0:
        raise DimensionMismatchError(
            f"joint dimension {u.shape[0]} incompatible with probe cutoff "
            f"{n_probe}")
    n_sys = u.shape[0] // n_probe
    contracted = np.einsum(
        "mpnq,q->mpn", u.reshape(n_sys, n_probe, n_sys, n_probe),
        probe.amplitudes)
    chi = quadrature_eigenvector_matrix(grid.points, n_probe, measured_phase)
    ops = np.einsum("xp,mpn->xmn", chi.conj(), contracted, optimize=True)
    return ReductionOperatorFamily(grid, ops, origin, probe.warnings)


def pom_from_reduction(fam: ReductionOperatorFamily) -> PomDensity:
    """pi(x) = Omega(x)^dag Omega(x): invariant under any x-dependent
    unitary dressing of the family."""
    return fam.pom()


def conditional_density(state, fam: ReductionOperatorFamily, x: float,
                        second_phase: float,
                        second_grid: Optional[OutcomeGrid] = None,
                        ) -> OutcomeDensity:
    """Density p(y|x) of an ideal quadrature measurement at ``second_phase``
    performed on the post-measurement state of outcome x (snapped to the
    nearest grid point)."""
    _, post = reduce_state(state, fam.at_outcome(x))
    return quadrature_density(post, second_grid or fam.grid, second_phase)


# ---------------------------------------------------------------------------
# Hermite functions


def hermite_functions_reference(xs, cutoff: int) -> np.ndarray:
    """A frozen copy of the straightforward form of the library's
    ``fock._hermite_functions``: the same three-term recurrence, far-point
    start and 2^512 rescale, with ``math.sqrt`` and fresh row lookups at
    every level.  The library's form must agree bit for bit."""
    far_sq, shift = 700.0, 512
    xs = np.asarray(xs, dtype=float)
    two_x = 2.0 * xs
    chi = np.empty((cutoff, xs.shape[0]))
    chi[0] = (2.0 / math.pi) ** 0.25 * np.exp(-xs * xs)
    far = np.flatnonzero(xs * xs > far_sq)
    if far.size:
        mant, expo = np.frexp(np.exp(-0.0625 * xs[far] ** 2))
        chi[0, far] = (2.0 / math.pi) ** 0.25 * mant ** 16
        expo = 16 * expo
    if cutoff > 1:
        np.multiply(two_x, chi[0], out=chi[1])
    tmp = np.empty(xs.shape[0])
    for n in range(1, cutoff - 1):
        nxt = chi[n + 1]
        np.multiply(two_x, chi[n], out=nxt)
        np.multiply(chi[n - 1], math.sqrt(n), out=tmp)
        np.subtract(nxt, tmp, out=nxt)
        np.divide(nxt, math.sqrt(n + 1), out=nxt)
        if far.size:
            big = far[np.abs(nxt[far]) > 2.0 ** shift]
            if big.size:
                chi[:n + 2, big] *= 2.0 ** -shift
                expo[np.isin(far, big)] += shift
    if far.size:
        chi[:, far] = np.ldexp(chi[:, far], expo[None, :])
    return chi.T


# ---------------------------------------------------------------------------
# inverse-CDF sampling


def inverse_cdf_reference(density, u) -> np.ndarray:
    """A frozen copy of the straightforward form of the library's
    inverse-CDF sampling of one tabulated density: its trapezoid CDF nodes
    from one cumulative sum, the bin of each uniform from one searchsorted,
    and the in-bin quadratic solved in its non-cancelling root form.  The
    library's stacked form must agree bit for bit, row by row."""
    pts, h = density.grid.points, density.grid.step
    vals = np.clip(density.values, 0.0, None)
    c = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
    cdf = c / c[-1]
    j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(pts) - 2)
    mass = cdf[j + 1] - cdf[j]
    s = np.where(mass > 0, (u - cdf[j]) / np.where(mass > 0, mass, 1.0), 0.0)
    f0, f1 = vals[j], vals[j + 1]
    disc = np.sqrt((1.0 - s) * f0 * f0 + s * f1 * f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = s * (f0 + f1) / (disc + f0)
    t = np.clip(np.where(np.isfinite(t), t, s), 0.0, 1.0)
    return pts[j] + t * h
