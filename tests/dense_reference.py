"""Reference forms kept as test oracles.

The library evaluates every stage exactly to rounding without a matrix
exponential or a dense joint-space matrix.  The Fock-space forms here are
the straightforward ones: truncated ``expm`` unitaries, the squeeze as its
generator's exponential in an extended space, the mixer assembled from
per-sector ``expm`` blocks, Kronecker-product joint operators, the spectrum
of the truncated quadrature, and the reduction family of an indirect
measurement contracted from a dense joint unitary, with the Born density,
state reduction and ideal quadrature density of any state under it.  The
rest are frozen copies of library arithmetic, inverse-CDF sampling and the
one-sample KS statistic, and the closed-form moments of a Gaussian
measurement.  No module of the package imports this one.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import eval_genlaguerre, gammaln

from quadmeas.errors import (
    DimensionMismatchError,
    GridRangeError,
    ParameterError,
    ZeroProbabilityError,
)
from quadmeas.fock import (
    DensityOperator,
    StateVector,
    _as_array,
    _check_cutoff,
    _check_transmissivity,
    _x0_svd,
    guard_level,
    make_annihilation,
    quadrature_eigenvector_matrix,
)
from quadmeas.kernel import (
    OutcomeDensity,
    OutcomeGrid,
    PomDensity,
    ReductionOperatorFamily,
    _cdf_rows,
)

# ---------------------------------------------------------------------------
# one-mode operators


@dataclass(frozen=True)
class Operator:
    """Matrix acting on a single mode (or a flattened two-mode space).

    The flags are construction-time assertions checked on the trusted
    (below-guard) block; compositions via ``@`` or ``dag`` drop them
    rather than re-verifying.
    """

    matrix: np.ndarray
    warnings: Tuple[str, ...] = ()
    hermitian_flag: bool = False
    unitary_flag: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(
                f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        if self.hermitian_flag or self.unitary_flag:
            block = guard_level(self.cutoff)
            if self.hermitian_flag:
                sub = mat[:block, :block]
                dev = float(np.max(np.abs(sub - sub.conj().T)))
                if dev > 1e-10:
                    raise ParameterError(
                        f"operator flagged hermitian deviates by {dev:.3e} "
                        f"on the trusted block")
            if self.unitary_flag:
                cols = mat[:, :block]
                dev = float(np.max(np.abs(cols.conj().T @ cols
                                          - np.eye(block))))
                if dev > 1e-10:
                    raise ParameterError(
                        f"operator flagged unitary deviates by {dev:.3e} "
                        f"on the trusted block")

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.warnings)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if other.cutoff != self.cutoff:
                raise DimensionMismatchError(
                    f"operator dims differ: {self.cutoff} vs {other.cutoff}")
            return Operator(self.matrix @ other.matrix,
                            self.warnings + other.warnings)
        return NotImplemented


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


def quadrature_spectrum(cutoff: int, phase: float = 0.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvector columns of the truncated
    x_phase = R x_0 R^dag, R = diag(e^{i k phase}): one half-size SVD of
    the real x_0 (_x0_svd), with eigenvector row k times e^{i k phase}."""
    cutoff = _check_cutoff(cutoff)
    u, s, vt = _x0_svd(cutoff)
    k = len(s)
    evals = np.concatenate((-s, np.zeros(cutoff - 2 * k), s[::-1]))
    vecs = np.zeros((cutoff, cutoff))
    half = math.sqrt(0.5)
    vecs[0::2, :k] = half * u[:, :k]
    vecs[1::2, :k] = -half * vt.T
    if cutoff % 2:
        vecs[0::2, k] = u[:, k]
    vecs[0::2, cutoff - k:] = half * u[:, k - 1::-1]
    vecs[1::2, cutoff - k:] = half * vt[::-1].T
    if phase != 0.0:
        vecs = vecs * np.exp(1j * phase * np.arange(cutoff))[:, None]
    return evals, vecs


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


def fidelity_to_pure(psi, rho) -> float:
    """<psi| rho |psi> for a pure reference vector psi."""
    psi = _as_array(psi).ravel()
    rho = _as_array(rho)
    if rho.ndim == 1:
        return float(abs(np.vdot(psi, rho)) ** 2)
    return float(np.real(psi.conj() @ (rho @ psi)))


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


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, Operator):
        return op.matrix
    return np.asarray(op)


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


def conditional_density(state, fam: ReductionOperatorFamily, x: float,
                        second_phase: float,
                        second_grid: Optional[OutcomeGrid] = None,
                        ) -> OutcomeDensity:
    """Density p(y|x) of an ideal quadrature measurement at ``second_phase``
    performed on the post-measurement state of outcome x (snapped to the
    nearest grid point)."""
    _, post = reduce_state(state, at_outcome(fam, x))
    return quadrature_density(post, second_grid or fam.grid, second_phase)


def at_outcome(fam: ReductionOperatorFamily, x: float) -> np.ndarray:
    """The family member at the grid point nearest to x."""
    i = int(np.argmin(np.abs(fam.grid.points - x)))
    if abs(fam.grid.points[i] - x) > 0.5 * fam.grid.step + 1e-12:
        raise GridRangeError(f"outcome {x} lies outside the grid")
    return fam.operators[i]


def validate_density(rho: DensityOperator, trace_tol: float = 1e-10,
                     hermitian_tol: float = 1e-12,
                     eigenvalue_floor: float = -1e-10) -> DensityOperator:
    """Assert unit trace, hermiticity and positivity; returns rho."""
    mat = rho.matrix
    tr = rho.trace()
    if abs(tr - 1.0) > trace_tol:
        raise ParameterError(f"density trace {tr} deviates from 1 "
                             f"beyond {trace_tol}")
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > hermitian_tol:
        raise ParameterError(f"density matrix non-hermitian by "
                             f"{herm_dev:.3e}")
    lowest = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
    if lowest < eigenvalue_floor:
        raise ParameterError(f"density matrix has eigenvalue {lowest:.3e}"
                             f" below {eigenvalue_floor}")
    return rho


# ---------------------------------------------------------------------------
# Hermite functions


def gram_completeness_defect(builder, grid: OutcomeGrid, block: int = 16,
                             pre_squeeze: bool = True) -> float:
    """SchemeFamilyBuilder.completeness_defect as the full Gram contraction,
    sum_m vc[:, m]^dag G vc[:, m] over every readout row m and every Gram
    row and column p, q < n_work, one row at a time (the builder sums only
    the triangle p < n_work + k_max - m, where the readout can be
    nonzero)."""
    vc = builder._unit_readout(pre_squeeze, block)[:, :, :block]
    chi = builder._chi(grid.points, builder._frames[pre_squeeze][0])
    gram = (chi.conj().T * grid.weights()) @ chi
    acc = sum(vc[:, m].conj().T @ gram @ vc[:, m]
              for m in range(builder.n_work))
    return float(np.max(np.abs(acc - np.eye(block))))


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


def _cdf_at(density: OutcomeDensity, xs: np.ndarray) -> np.ndarray:
    """Exact CDF of the piecewise-linear density at arbitrary points."""
    pts = density.grid.points
    h = density.grid.step
    vals = np.clip(density.values, 0.0, None)
    nodes = _cdf_rows(density.values, h)
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
# closed-form measurement arithmetic used as frozen oracle values
#
# Throughout: a width-Delta Gaussian measurement kernel applied to a state
# whose measured-quadrature marginal is N(m, v).


def outcome_moments(prior_mean: float, prior_var: float,
                    delta: float) -> Tuple[float, float]:
    """Moments of the outcome density: N(m, v) convolved with N(0, Delta^2)."""
    return prior_mean, prior_var + delta * delta


def posterior_moments(prior_mean: float, prior_var: float, delta: float,
                      outcome: float) -> Tuple[float, float]:
    """Moments of the measured quadrature after observing ``outcome``.

    Product of Gaussians: posterior variance (v^-1 + Delta^-2)^-1 and mean
    pulled toward the outcome with gain v/(v + Delta^2).
    """
    gain = prior_var / (prior_var + delta * delta)
    mean = prior_mean + gain * (outcome - prior_mean)
    var = prior_var * delta * delta / (prior_var + delta * delta)
    return mean, var
