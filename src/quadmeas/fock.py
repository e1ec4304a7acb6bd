"""Truncated-Fock-basis core: states, ladder operators, quadrature spectra.

Conventions used throughout the package
---------------------------------------
* Quadrature at phase ``phi``:  x_phi = (a_dag * e^{i phi} + a * e^{-i phi}) / 2,
  so the vacuum quadrature variance is 1/4 and
  [x_phi, x_{phi+pi/2}] = i/2.
* Every construction that can silently lose amplitude past the truncation
  boundary carries a guard band: the top ``GUARD_FRACTION`` of the Fock
  levels is treated as untrusted, and constructors attach warnings when a
  requested object predictably leaks into it.

All matrices are plain numpy arrays (complex128 unless the object is real
by construction); states are 1-d, operators 2-d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, ParameterError

GUARD_FRACTION = 0.2


def guard_level(cutoff: int) -> int:
    """First untrusted Fock level: levels >= guard_level(cutoff) form the
    guard band (top GUARD_FRACTION of the basis)."""
    return int(math.ceil((1.0 - GUARD_FRACTION) * cutoff))


def _check_cutoff(cutoff: int) -> int:
    if not isinstance(cutoff, (int, np.integer)):
        raise ParameterError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 2:
        raise ParameterError(f"cutoff must be >= 2, got {cutoff}")
    return int(cutoff)


def _check_transmissivity(eta: float) -> float:
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ParameterError(
            f"transmissivity must lie strictly inside (0, 1), got {eta}")
    return eta


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class StateVector:
    """Pure state of a single mode in the truncated number basis.

    Attributes
    ----------
    amplitudes : (cutoff,) complex ndarray
    warnings : tuple of str
        Guard-band or construction notes attached by the factory that
        produced the state.  Empty for clean constructions.
    """

    amplitudes: np.ndarray
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] < 2:
            raise DimensionMismatchError(
                f"state vector must be 1-d with length >= 2, got shape {amp.shape}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ParameterError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n, self.warnings)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes,
                                        self.amplitudes.conj()),
                               self.warnings)


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state of a single mode: positive, unit-trace matrix."""

    matrix: np.ndarray
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(
                f"density operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def normalized(self) -> "DensityOperator":
        tr = self.trace().real
        if tr <= 0.0:
            raise ParameterError(f"density trace must be positive, got {tr}")
        return DensityOperator(self.matrix / tr, self.warnings)


# ---------------------------------------------------------------------------
# state factories


def vacuum_state(cutoff: int) -> StateVector:
    cutoff = _check_cutoff(cutoff)
    amp = np.zeros(cutoff, dtype=complex)
    amp[0] = 1.0
    return StateVector(amp)


def fock_state(n: int, cutoff: int) -> StateVector:
    cutoff = _check_cutoff(cutoff)
    if not 0 <= n < cutoff:
        raise ParameterError(f"Fock level {n} outside basis of size {cutoff}")
    amp = np.zeros(cutoff, dtype=complex)
    amp[n] = 1.0
    warn: Tuple[str, ...] = ()
    if n >= guard_level(cutoff):
        warn = (f"fock level {n} lies inside the guard band "
                f"(levels >= {guard_level(cutoff)})",)
    return StateVector(amp, warn)


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Coherent state by the closed-form amplitudes
    c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!), renormalized on the
    truncated basis."""
    cutoff = _check_cutoff(cutoff)
    n = np.arange(cutoff)
    if alpha != 0:
        log_mod = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) \
            - 0.5 * np.array([math.lgamma(k + 1) for k in n])
        amp = np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))
    else:
        amp = np.zeros(cutoff, dtype=complex)
        amp[0] = 1.0
    warn: Tuple[str, ...] = ()
    tail = 1.0 - float(np.sum(np.abs(amp) ** 2))
    # mean photon number must sit comfortably below the guard band
    if abs(alpha) ** 2 > guard_level(cutoff) or tail > 1e-9:
        warn = (f"coherent amplitude |alpha|^2 = {abs(alpha)**2:.3g} reaches the "
                f"guard band of a cutoff-{cutoff} basis (tail mass {max(tail, 0):.2e})",)
    v = StateVector(amp, warn)
    return v.normalized()


def squeezed_vacuum(sigma: float, cutoff: int, phase: float = 0.0) -> StateVector:
    """Minimum-uncertainty state with quadrature variance sigma/4 along
    ``phase`` (sigma=1 is the vacuum; sigma<1 squeezed, sigma>1 anti-squeezed).

    Built from the two-photon recursion for S(r)|0> with r = ln(sigma)/2:
    c_0 = 1/sqrt(cosh r), c_{2k} = tanh(r) sqrt(2k-1)/sqrt(2k) c_{2k-2}.
    """
    cutoff = _check_cutoff(cutoff)
    sigma = float(sigma)
    if sigma <= 0.0:
        raise ParameterError(f"variance scale sigma must be > 0, got {sigma}")
    r = 0.5 * math.log(sigma)
    amp = np.zeros(cutoff, dtype=complex)
    amp[0] = 1.0 / math.sqrt(math.cosh(r))
    t = math.tanh(r) * np.exp(2j * phase)
    for k in range(2, cutoff, 2):
        amp[k] = amp[k - 2] * t * math.sqrt(k - 1) / math.sqrt(k)
    warn: Tuple[str, ...] = ()
    tail = abs(amp[cutoff - 2 if cutoff % 2 == 0 else cutoff - 1]) ** 2
    if abs(r) > 2.5 or tail > 1e-12:
        warn = (f"squeeze parameter r = {r:.3g} for sigma = {sigma} populates "
                f"the top of a cutoff-{cutoff} basis",)
    v = StateVector(amp, warn)
    return v.normalized()


# ---------------------------------------------------------------------------
# elementary operators


def make_annihilation(cutoff: int) -> np.ndarray:
    cutoff = _check_cutoff(cutoff)
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def make_quadrature(cutoff: int, phase: float = 0.0) -> np.ndarray:
    """x_phase = (a_dag e^{i phase} + a e^{-i phase}) / 2."""
    a = make_annihilation(cutoff)
    return 0.5 * (a.conj().T * np.exp(1j * phase) + a * np.exp(-1j * phase))


# ---------------------------------------------------------------------------
# quadrature eigenvectors and spectral calculus


# chi_0(x) is subnormal past x^2 ~ 708; a mantissa past 2^_SHIFT moves
# 2^_SHIFT into its point's exponent, so none overflows.
_FAR_SQ = 700.0
_SHIFT = 512


def quadrature_eigenvector_matrix(xs: Sequence[float], cutoff: int,
                                  phase: float = 0.0) -> np.ndarray:
    """Delta-normalized improper eigenvectors |x>_phase of x_phase, one row
    per point of ``xs``: the values <n|x>_phase = e^{i n phase} chi_n(x),
    shape (len(xs), cutoff), copied out in C order, with chi the Hermite
    functions of this package's scaling (_hermite_functions):

        chi_0(x) = (2/pi)^{1/4} exp(-x^2),   chi_1 = 2 x chi_0,
        chi_{n+1} = (2 x chi_n - sqrt(n) chi_{n-1}) / sqrt(n+1).

    Past the guarded range |x| <= sqrt(guard_level + 1/2) a row is still
    exact, but the truncated basis no longer resolves |x>."""
    chi = _hermite_functions(xs, cutoff)
    if phase == 0.0:
        return np.ascontiguousarray(chi, dtype=complex)
    out = np.empty(chi.shape, dtype=complex)
    return np.multiply(chi, np.exp(1j * phase * np.arange(cutoff)), out=out)


def _hermite_functions(xs: Sequence[float], cutoff: int) -> np.ndarray:
    """chi_n(x) for n < cutoff at every x, real, shaped (len(xs), cutoff):
    the transposed view of a level-major array.

    The recurrence runs level by level on contiguous rows of one (cutoff,
    len(xs)) array, in place.  A point with x^2 > 700 starts the recurrence
    from the mantissa of chi_0 = (2/pi)^{1/4} (e^{-x^2/16})^16 and scales
    its column by its exponent at the end, so every value is exact to
    rounding or a true underflow at any x."""
    xs = np.asarray(xs, dtype=float)
    two_x = 2.0 * xs
    chi = np.empty((cutoff, xs.shape[0]))
    chi[0] = (2.0 / math.pi) ** 0.25 * np.exp(-xs * xs)
    far = np.flatnonzero(xs * xs > _FAR_SQ)
    if far.size:
        mant, expo = np.frexp(np.exp(-0.0625 * xs[far] ** 2))
        chi[0, far] = (2.0 / math.pi) ** 0.25 * mant ** 16
        expo = 16 * expo
    if cutoff > 1:
        np.multiply(two_x, chi[0], out=chi[1])
    tmp = np.empty(xs.shape[0])
    rows = list(chi)
    roots = np.sqrt(np.arange(cutoff, dtype=float)).tolist()
    mul, sub, div = np.multiply, np.subtract, np.divide
    for n in range(1, cutoff - 1):
        nxt = rows[n + 1]
        mul(two_x, rows[n], out=nxt)
        mul(rows[n - 1], roots[n], out=tmp)
        sub(nxt, tmp, out=nxt)
        div(nxt, roots[n + 1], out=nxt)
        if far.size:
            big = far[np.abs(nxt[far]) > 2.0 ** _SHIFT]
            if big.size:
                chi[:n + 2, big] *= 2.0 ** -_SHIFT
                expo[np.isin(far, big)] += _SHIFT
    if far.size:
        chi[:, far] = np.ldexp(chi[:, far], expo[None, :])
    return chi.T


def _x0_svd(cutoff: int, vectors: bool = True):
    """np.linalg.svd of B = x_0[0::2, 1::2], the ceil(n/2) x floor(n/2)
    lower bidiagonal B[j, j] = sqrt(2j+1)/2, B[j+1, j] = sqrt(2j+2)/2 of
    the truncated x_0, whose diagonal is zero: in the even-odd level order
    x_0 = [[0, B], [B^T, 0]], so its eigenpairs are +-s_l with
    (u_l, +-v_l)/sqrt(2), and for odd n the null vector of B^T, the last
    column of u, has the eigenvalue 0 (Golub & Kahan 1965).  The singular
    values come descending."""
    j = np.arange(cutoff // 2)
    b = np.zeros(((cutoff + 1) // 2, cutoff // 2))
    b[j, j] = 0.5 * np.sqrt(2.0 * j + 1.0)
    j = j[:(cutoff - 1) // 2]
    b[j + 1, j] = 0.5 * np.sqrt(2.0 * j + 2.0)
    return np.linalg.svd(b, compute_uv=vectors)


def quadrature_nodes(cutoff: int) -> np.ndarray:
    """Eigenvalues of the truncated x_0, ascending, from the singular values
    of one _x0_svd: the zeros of chi_cutoff, so the nodes of the
    cutoff-point Gauss rule of weight e^{-2x^2}."""
    s = _x0_svd(cutoff, vectors=False)
    return np.concatenate((-s, np.zeros(cutoff % 2), s[::-1]))


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss rule of weight e^{-2z^2} (Golub & Welsch 1969):
    nodes lam_l, ascending, and Christoffel weights W_l = 1 / sum_{i<n}
    chi_i(lam_l)^2 taken on the Hermite functions, so that

        int f(z) dz = sum_l W_l f(lam_l)

    exactly for every f that is a polynomial of degree < 2n times
    e^{-2z^2}.  The nodes are quadrature_nodes(n), refined by one Newton
    step on chi_n(lam) = 0, where chi_n' = 2 sqrt(n) chi_{n-1}; the
    refinement keeps them symmetric to the last bit.  The largest node is
    about sqrt(n), so from n ~ 730 on chi_0 is subnormal there while
    chi_{n-1} is not; _hermite_functions keeps every chi exact to rounding
    past that point.  The rule of each n is built once and kept, its arrays
    read-only, as every stage call asks for one."""
    lam = quadrature_nodes(n)
    chi = _hermite_functions(lam, n + 1)
    lam = lam - chi[:, n] / (2.0 * math.sqrt(n) * chi[:, n - 1])
    w = 1.0 / np.sum(_hermite_functions(lam, n) ** 2, axis=1)
    lam.flags.writeable = w.flags.writeable = False
    return lam, w


# ---------------------------------------------------------------------------
# expectation values and distances


def _as_array(state) -> np.ndarray:
    """The vector or matrix of a StateVector, a DensityOperator or an array."""
    if isinstance(state, StateVector):
        return state.amplitudes
    if isinstance(state, DensityOperator):
        return state.matrix
    return np.asarray(state)


def expectation(op: np.ndarray, state) -> complex:
    """<op> in a StateVector or DensityOperator (or raw ndarray of either kind)."""
    arr = _as_array(state)
    if arr.ndim == 1:
        return complex(arr.conj() @ (op @ arr))
    return complex(np.trace(op @ arr))


def variance(op: np.ndarray, state) -> float:
    m1 = expectation(op, state)
    m2 = expectation(op @ op, state)
    return float((m2 - m1 * m1).real)


def _state_matrix(state) -> np.ndarray:
    """Density matrix of a StateVector, DensityOperator, vector or matrix."""
    arr = _as_array(state)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return arr


def trace_distance(rho, tau) -> float:
    """(1/2) ||rho - tau||_1 via the eigenvalues of the Hermitian difference.
    Accepts density matrices, pure vectors, or their wrapper types."""
    d = _state_matrix(rho) - _state_matrix(tau)
    d = 0.5 * (d + d.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(d))))
