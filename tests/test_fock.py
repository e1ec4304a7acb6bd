import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from quadmeas import (
    GUARD_FRACTION,
    DimensionMismatchError,
    ParameterError,
    coherent_state,
    expectation,
    fock_state,
    guard_level,
    make_annihilation,
    make_quadrature,
    quadrature_eigenvector_matrix,
    quadrature_nodes,
    squeezed_vacuum,
    trace_distance,
    vacuum_state,
    variance,
)
from quadmeas.fock import _gauss_rule, _hermite_functions

from dense_reference import (
    Operator,
    fidelity_to_pure,
    function_of_quadrature,
    hermite_functions_reference,
    joint_operator,
    joint_state,
    make_beam_splitter,
    make_creation,
    make_displacement,
    make_number,
    make_phase_rotation,
    make_squeeze,
    partial_trace,
    quadrature_spectrum,
    validate_density,
)

CUT = 40


def test_guard_band_level():
    assert GUARD_FRACTION == 0.2
    assert guard_level(60) == 48
    assert guard_level(10) == 8
    assert guard_level(11) == 9


def test_cutoff_validation():
    with pytest.raises(ParameterError):
        vacuum_state(1)
    with pytest.raises(ParameterError):
        make_annihilation(0)
    with pytest.raises(ParameterError):
        make_beam_splitter(0.0, 10)
    with pytest.raises(ParameterError):
        make_beam_splitter(1.0, 10)


def test_ladder_commutator_on_trusted_block():
    a = make_annihilation(CUT)
    comm = a @ a.conj().T - a.conj().T @ a
    g = guard_level(CUT)
    assert_allclose(comm[:g, :g], np.eye(CUT)[:g, :g], atol=1e-13)


def test_quadrature_commutator_is_i_over_two():
    """[x_phi, x_{phi+pi/2}] = i/2 away from the truncation boundary."""
    for phi in (0.0, 0.3, 1.2):
        x = make_quadrature(CUT, phi)
        y = make_quadrature(CUT, phi + math.pi / 2)
        comm = x @ y - y @ x
        g = guard_level(CUT)
        assert_allclose(comm[:g, :g], 0.5j * np.eye(CUT)[:g, :g], atol=1e-13)


def test_vacuum_quadrature_variance_is_one_quarter():
    vac = vacuum_state(CUT)
    for phi in (0.0, 0.7):
        x = make_quadrature(CUT, phi)
        assert_allclose(expectation(x, vac), 0.0, atol=1e-14)
        assert_allclose(variance(x, vac), 0.25, atol=1e-14)


def test_number_operator_values():
    n = make_number(CUT)
    assert_allclose(expectation(n, fock_state(5, CUT)), 5.0, atol=1e-14)
    assert_allclose(expectation(n, coherent_state(1.3, CUT)), 1.69, atol=1e-10)


def test_coherent_state_against_displaced_vacuum():
    alpha = 0.8 - 0.4j
    d = make_displacement(alpha, CUT)
    assert d.warnings == ()
    displaced = d.matrix @ vacuum_state(CUT).amplitudes
    assert_allclose(displaced, coherent_state(alpha, CUT).amplitudes, atol=1e-10)


def test_displacement_is_unitary_and_invertible():
    # round trip pinned at 1e-9: the construction is an exact expm of an
    # anti-Hermitian matrix, so D(a) D(-a) = 1 regardless of truncation
    alpha = 1.1 + 0.5j
    d = make_displacement(alpha, CUT).matrix
    dinv = make_displacement(-alpha, CUT).matrix
    assert_allclose(d @ dinv, np.eye(CUT), atol=1e-9)
    assert_allclose(d @ d.conj().T, np.eye(CUT), atol=1e-12)


def test_displacement_shifts_quadrature():
    """D_dag(alpha) x_0 D(alpha) = x_0 + Re(alpha) on the trusted block.

    Conjugation products mix boundary rows through the intermediate index,
    so the trusted block is much smaller than for the unitary itself.
    """
    alpha = 0.6 + 0.9j
    d = make_displacement(alpha, 80).matrix
    x = make_quadrature(80)
    moved = d.conj().T @ x @ d
    assert_allclose(moved[:24, :24],
                    (x + alpha.real * np.eye(80))[:24, :24], atol=1e-12)


def test_displacement_guard_warning():
    op = make_displacement(6.0, 30)
    assert op.warnings and "guard" in op.warnings[0]


def test_squeeze_scales_quadrature():
    """S_dag(r) x_0 S(r) = e^r x_0; conjugate quadrature shrinks by e^-r.

    Column n of the truncated squeeze is only faithful for
    n * e^{2|r|} well below the cutoff, hence the small block.
    """
    r = 0.5
    s = make_squeeze(r, 80).matrix
    x = make_quadrature(80)
    y = make_quadrature(80, math.pi / 2)
    assert_allclose((s.conj().T @ x @ s)[:12, :12],
                    (math.exp(r) * x)[:12, :12], atol=1e-10)
    assert_allclose((s.conj().T @ y @ s)[:12, :12],
                    (math.exp(-r) * y)[:12, :12], atol=1e-10)


def test_squeeze_unitary_and_guard():
    s = make_squeeze(0.8, CUT)
    assert s.warnings == ()
    assert_allclose(s.matrix @ s.matrix.conj().T, np.eye(CUT), atol=1e-12)
    assert make_squeeze(3.0, CUT).warnings != ()


def test_squeezed_vacuum_variance_scaling():
    # variance sigma/4 along the squeeze axis, 1/(16 var) on the conjugate
    for sigma in (0.5, 1.0, 2.0):
        st = squeezed_vacuum(sigma, 60)
        x = make_quadrature(60)
        y = make_quadrature(60, math.pi / 2)
        assert_allclose(variance(x, st), sigma / 4.0, rtol=1e-10)
        assert_allclose(variance(y, st), 1.0 / (4.0 * sigma), rtol=1e-10)


def test_squeezed_vacuum_matches_squeeze_on_vacuum():
    sigma = 2.0
    r = 0.5 * math.log(sigma)
    via_op = make_squeeze(r, 60).matrix @ vacuum_state(60).amplitudes
    assert_allclose(squeezed_vacuum(sigma, 60).amplitudes, via_op, atol=1e-10)


def test_squeezed_vacuum_rejects_nonpositive_sigma():
    with pytest.raises(ParameterError):
        squeezed_vacuum(0.0, 20)
    with pytest.raises(ParameterError):
        squeezed_vacuum(-1.0, 20)


def test_phase_rotation_moves_quadrature_angle():
    phi = 0.9
    rot = make_phase_rotation(CUT, phi)
    x0 = make_quadrature(CUT)
    assert_allclose(rot @ x0 @ rot.conj().T, make_quadrature(CUT, phi),
                    atol=1e-13)


# --- quadrature eigenvectors ------------------------------------------------


def test_eigenvector_value_at_origin():
    chi = quadrature_eigenvector_matrix([0.0], 8)[0]
    assert_allclose(chi[0].real, (2.0 / math.pi) ** 0.25, rtol=1e-12)
    assert_allclose(chi[0].real, 0.8932438417, atol=1e-9)
    assert chi[1] == 0.0


def test_eigenvector_recursion_matches_explicit_low_orders():
    x = 0.7
    chi = quadrature_eigenvector_matrix([x], 6)[0].real
    chi0 = (2.0 / math.pi) ** 0.25 * math.exp(-x * x)
    assert_allclose(chi[0], chi0, rtol=1e-13)
    assert_allclose(chi[1], 2.0 * x * chi0, rtol=1e-13)
    assert_allclose(chi[2], (2.0 * x * chi[1] - chi[0]) / math.sqrt(2.0),
                    rtol=1e-13)


def test_eigenvector_is_approximate_eigenvector_on_trusted_block():
    x_val = 1.2
    v = quadrature_eigenvector_matrix([x_val], 80)[0]
    xq = make_quadrature(80)
    resid = xq @ v - x_val * v
    assert np.max(np.abs(resid[: guard_level(80)])) < 1e-10


def test_eigenvector_delta_normalization():
    """Riemann sum of |x><x| over a wide grid resolves the identity."""
    xs = np.arange(-8.0, 8.0, 0.01)
    m = quadrature_eigenvector_matrix(xs, 20)
    gram = 0.01 * (m.conj().T @ m)
    assert_allclose(gram, np.eye(20), atol=1e-7)


def test_eigenvector_phase_convention():
    phi = 0.4
    v0 = quadrature_eigenvector_matrix([0.9], 12)[0]
    vphi = quadrature_eigenvector_matrix([0.9], 12, phase=phi)[0]
    assert_allclose(vphi, v0 * np.exp(1j * phi * np.arange(12)), atol=1e-14)
    # |x>_phi is the phase-rotated |x>_0
    assert_allclose(vphi, make_phase_rotation(12, phi) @ v0, atol=1e-14)


def test_eigenvector_matrix_agrees_with_single_calls():
    xs = [-1.5, 0.0, 2.2]
    m = quadrature_eigenvector_matrix(xs, 15, phase=0.3)
    for i, x in enumerate(xs):
        assert_allclose(m[i], quadrature_eigenvector_matrix([x], 15,
                                                            phase=0.3)[0],
                        atol=1e-14)


def test_eigenvector_matrix_holds_where_chi0_underflows():
    # the outer nodes of the truncated x_0 at n 800 pass x^2 = 745, where
    # chi_0 = (2/pi)^{1/4} e^{-x^2} underflows while chi_799 is of order
    # one; there the eigenvector columns are chi_k(lam) / |chi(lam)| up to
    # sign
    n = 800
    lam, vecs = quadrature_spectrum(n)
    top = np.arange(n - 12, n)
    assert lam[top[0]] ** 2 < 700.0 and lam[-1] ** 2 > 745.0
    chi = quadrature_eigenvector_matrix(lam[top], n).real
    unit = chi / np.linalg.norm(chi, axis=1)[:, None]
    sign = np.sign(unit[:, -1] * vecs[-1, top])
    assert np.max(np.abs(unit * sign[:, None] - vecs[:, top].T)) < 5e-14


@pytest.mark.parametrize("n", [2, 48, 49])
def test_quadrature_nodes_are_the_spectrum(n):
    # the eigenvalues-only driver rounds apart from the one with vectors
    assert_allclose(quadrature_nodes(n), quadrature_spectrum(n)[0],
                    rtol=0, atol=5e-14)
    assert np.array_equal(quadrature_nodes(1), [0.0])


@pytest.mark.parametrize("n", [1, 2, 3, 40, 161, 801])
def test_hermite_functions_match_the_frozen_recurrence(n):
    # points past x^2 = 700 start from chi_0's mantissa, and at 161 and 801
    # levels the far points' mantissas pass 2^512 and are rescaled
    xs = np.concatenate([np.linspace(-6.0, 6.0, 49),
                         [0.0, -0.0, 26.4, -26.5, 27.0, 30.0, -35.0, 40.0,
                          60.0]])
    assert np.array_equal(_hermite_functions(xs, n),
                          hermite_functions_reference(xs, n))


def test_gauss_rule_is_built_once_per_node_count():
    # every stage call asks for a rule: a second call returns the same
    # arrays, which no caller may write into
    lam, w = _gauss_rule(37)
    again = _gauss_rule(37)
    assert again[0] is lam and again[1] is w
    assert not lam.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("n", [2, 7, 160, 161, 800])
def test_gauss_rule_is_orthonormal_on_the_hermite_functions(n):
    # sum_l W_l chi_i(lam_l) chi_j(lam_l) = delta_ij for i, j < n holds only
    # at the zeros of chi_n; at n 800 chi_0 underflows at the outer nodes
    lam, w = _gauss_rule(n)
    chi = quadrature_eigenvector_matrix(lam, n).real
    assert np.max(np.abs((chi.T * w) @ chi - np.eye(n))) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 48, 49, 160, 250, 612, 800])
def test_quadrature_spectrum_matches_scipy_tridiagonal_solvers(n):
    # scipy's tridiagonal solvers as an independent oracle of the half-size
    # SVD; the values-only oracle is bisection (stebz): the default values
    # driver (sterf) is itself off by up to 4.4e-13 at n 800, where these
    # nodes and eigh_tridiagonal's eigenvalues agree with 40-digit Newton
    # refinements to 1.1e-14
    off = 0.5 * np.sqrt(np.arange(1.0, n))
    ref_vals, ref_vecs = eigh_tridiagonal(np.zeros(n), off)
    nodes = quadrature_nodes(n)
    assert np.max(np.abs(nodes - eigvalsh_tridiagonal(
        np.zeros(n), off, lapack_driver="stebz"))) <= 1e-13
    assert np.array_equal(nodes, -nodes[::-1])
    for phase in (0.0, 0.7):
        vals, vecs = quadrature_spectrum(n, phase)
        r = np.exp(1j * phase * np.arange(n))
        assert np.max(np.abs(vals - ref_vals)) <= 1e-13
        sign = np.sign(np.sum((vecs * r.conj()[:, None]).real * ref_vecs,
                              axis=0))
        assert np.max(np.abs(vecs * sign - ref_vecs * r[:, None])) <= 1e-13
        # residual of x_phase = R x_0 R^dag, with R the phase vecs carry
        x = r[:, None] * make_quadrature(n).real * r.conj()[None, :]
        assert np.max(np.abs(x @ vecs - vecs * vals)) <= 1e-13
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 1e-14


def test_function_of_quadrature_polynomial_exact():
    # f(x) = x^2 must reproduce the matrix square on the trusted block
    m = function_of_quadrature(lambda v: v * v, 40)
    x = make_quadrature(40)
    g = guard_level(40)
    assert_allclose(m[:g, :g], (x @ x)[:g, :g], atol=1e-10)


def test_quadrature_spectrum_matches_dense_eigh():
    # the tridiagonal spectrum with phased rows gives the (bounded) spectral
    # functions of a dense eigh of the truncated quadrature
    n = 120
    for phase in (0.0, 0.7):
        evals, vecs = quadrature_spectrum(n, phase)
        ref_evals, ref_vecs = np.linalg.eigh(make_quadrature(n, phase))
        assert np.max(np.abs(evals - ref_evals)) < 1e-13
        for f in (lambda v: np.exp(-(v - 0.4) ** 2), lambda v: np.exp(-2j * v),
                  np.tanh):
            mine = (vecs * f(evals)) @ vecs.conj().T
            ref = (ref_vecs * f(ref_evals)) @ ref_vecs.conj().T
            assert np.max(np.abs(mine - ref)) < 1e-13


# --- beam splitter and joint space ------------------------------------------


def test_beam_splitter_is_unitary():
    u = make_beam_splitter(0.37, 12).matrix
    assert_allclose(u @ u.conj().T, np.eye(144), atol=1e-12)


def test_beam_splitter_conserves_photon_number():
    n = 10
    u = make_beam_splitter(0.6, n).matrix
    ntot = joint_operator(make_number(n), np.eye(n)) + \
        joint_operator(np.eye(n), make_number(n))
    assert_allclose(u @ ntot, ntot @ u, atol=1e-12)


def test_beam_splitter_heisenberg_action():
    """U_dag a U = sqrt(eta) a - sqrt(1-eta) b, and the matching b relation."""
    eta, n = 0.3, 14
    u = make_beam_splitter(eta, n).matrix
    a = joint_operator(make_annihilation(n), np.eye(n))
    b = joint_operator(np.eye(n), make_annihilation(n))
    t, rfl = math.sqrt(eta), math.sqrt(1.0 - eta)
    # keep both mode indices low so no photon-number sector is truncated
    keep = [m * n + q for m in range(6) for q in range(6)]
    sel = np.ix_(keep, keep)
    lhs_a = (u.conj().T @ a @ u)[sel]
    rhs_a = (t * a - rfl * b)[sel]
    assert_allclose(lhs_a, rhs_a, atol=1e-12)
    lhs_b = (u.conj().T @ b @ u)[sel]
    rhs_b = (rfl * a + t * b)[sel]
    assert_allclose(lhs_b, rhs_b, atol=1e-12)


def test_beam_splitter_vacuum_is_fixed_point():
    u = make_beam_splitter(0.5, 8).matrix
    vac = joint_state(vacuum_state(8), vacuum_state(8)).amplitudes
    assert_allclose(u @ vac, vac, atol=1e-13)


def test_beam_splitter_single_photon_split():
    """|1,0> -> sqrt(eta)|1,0> + sqrt(1-eta)|0,1> (Schroedinger action)."""
    eta, n = 0.7, 6
    u = make_beam_splitter(eta, n).matrix
    inp = joint_state(fock_state(1, n), vacuum_state(n)).amplitudes
    out = u @ inp
    expect = np.zeros_like(inp)
    expect[1 * n + 0] = math.sqrt(eta)
    expect[0 * n + 1] = math.sqrt(1 - eta)
    # the sign convention of the off-diagonal follows the generator
    assert_allclose(np.abs(out), np.abs(expect), atol=1e-12)
    assert_allclose(abs(out[n]) ** 2, eta, atol=1e-12)


def test_joint_state_ordering_system_slowest():
    s = fock_state(2, 4)
    p = fock_state(1, 5)
    j = joint_state(s, p)
    assert j.sys_cutoff == 4 and j.probe_cutoff == 5
    assert j.amplitudes[2 * 5 + 1] == 1.0
    assert_allclose(np.sum(np.abs(j.amplitudes)), 1.0)
    assert j.as_matrix()[2, 1] == 1.0


def test_partial_trace_of_product_state():
    s = coherent_state(0.5, 10)
    p = squeezed_vacuum(2.0, 10)
    j = joint_state(s, p)
    rho = np.outer(j.amplitudes, j.amplitudes.conj())
    red_s = partial_trace(rho, 10, 10, keep="system")
    red_p = partial_trace(rho, 10, 10, keep="probe")
    assert_allclose(red_s, np.outer(s.amplitudes, s.amplitudes.conj()),
                    atol=1e-13)
    assert_allclose(red_p, np.outer(p.amplitudes, p.amplitudes.conj()),
                    atol=1e-13)


def test_partial_trace_shape_check():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(10), 3, 4)


def test_trace_distance_and_fidelity_basics():
    v0 = vacuum_state(8)
    v1 = fock_state(1, 8)
    r0 = v0.density().matrix
    r1 = v1.density().matrix
    assert_allclose(trace_distance(r0, r0), 0.0, atol=1e-14)
    assert_allclose(trace_distance(r0, r1), 1.0, atol=1e-12)
    assert_allclose(fidelity_to_pure(v0.amplitudes, r0), 1.0, atol=1e-14)
    assert_allclose(fidelity_to_pure(v0.amplitudes, r1), 0.0, atol=1e-14)


def test_creation_is_adjoint_of_annihilation():
    assert_allclose(make_creation(9), make_annihilation(9).conj().T)


def guard_population(state):
    """Probability weight sitting in the untrusted top Fock levels."""
    return float(np.sum(np.abs(state.amplitudes[guard_level(state.cutoff):])
                        ** 2))


def test_state_guard_population_reporting():
    st = coherent_state(3.0, 12)
    assert st.warnings != ()
    assert guard_population(st) > 1e-4
    clean = coherent_state(0.5, 30)
    assert clean.warnings == ()
    assert guard_population(clean) < 1e-20


def test_operator_flags_verified_on_trusted_block():
    disp = make_displacement(0.7, 30)
    assert disp.unitary_flag
    assert make_squeeze(0.4, 30).unitary_flag
    assert make_beam_splitter(0.5, 12).unitary_flag
    x = make_quadrature(16)
    assert Operator(x, hermitian_flag=True).hermitian_flag
    skew = x.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ParameterError):
        Operator(skew, hermitian_flag=True)
    with pytest.raises(ParameterError):
        Operator(np.diag([1.0, 2.0, 1.0, 1.0, 1.0]), unitary_flag=True)
    # composition drops the assertions rather than re-verifying
    assert not (disp @ disp.dag()).unitary_flag


def test_density_validate_accepts_healthy_state():
    rho = coherent_state(0.6, 25).density()
    assert validate_density(rho) is rho


def test_density_validate_rejects_bad_trace_hermiticity_positivity():
    good = coherent_state(0.6, 25).density().matrix
    from quadmeas.fock import DensityOperator

    with pytest.raises(ParameterError):
        validate_density(DensityOperator(1.01 * good))
    lopsided = good.copy()
    lopsided[2, 3] += 1e-9
    with pytest.raises(ParameterError):
        validate_density(DensityOperator(lopsided))
    indefinite = good - 5e-9 * np.eye(25)
    indefinite /= np.trace(indefinite).real
    with pytest.raises(ParameterError):
        validate_density(DensityOperator(indefinite))
