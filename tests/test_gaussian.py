import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadmeas import fock
from quadmeas.errors import (
    DegenerateCovarianceError,
    DimensionMismatchError,
    ParameterError,
)
from quadmeas.gaussian import (
    GaussianState,
    SymplecticTransform,
    beam_splitter_symplectic,
    coherent_gaussian,
    condition_on_quadrature,
    conjugate_variance_after,
    displacement_transform,
    normal_pdf,
    quadrature_statistics,
    rotation_matrix,
    squeeze_symplectic,
    squeezed_vacuum_gaussian,
    symplectic_form,
    tensor_product,
    vacuum_gaussian,
)

from dense_reference import (
    joint_operator,
    joint_state,
    make_beam_splitter,
    make_squeeze,
    outcome_moments,
    posterior_moments,
)


def rotation_symplectic(phi: float) -> SymplecticTransform:
    """Phase rotation e^{i phi n}: rotates (x, y) by +phi."""
    return SymplecticTransform(rotation_matrix(phi), np.zeros(2))


def system_mode(t: SymplecticTransform) -> SymplecticTransform:
    """A one-mode transform on the system of a (system, probe) pair."""
    mat = np.eye(4)
    mat[:2, :2] = t.matrix
    return SymplecticTransform(mat, np.concatenate([t.shift, np.zeros(2)]))


def fock_moments(amplitudes, cutoff_sys, cutoff_probe=None):
    """Mean vector and symmetrized covariance of the quadratures of a Fock
    state vector, in the oracle's (x_s, y_s[, X_p, Y_p]) ordering."""
    if cutoff_probe is None:
        x = fock.make_quadrature(cutoff_sys)
        y = fock.make_quadrature(cutoff_sys, math.pi / 2)
        ops = [x, y]
    else:
        x = fock.make_quadrature(cutoff_sys)
        y = fock.make_quadrature(cutoff_sys, math.pi / 2)
        xp = fock.make_quadrature(cutoff_probe)
        yp = fock.make_quadrature(cutoff_probe, math.pi / 2)
        eye_s = np.eye(cutoff_sys)
        eye_p = np.eye(cutoff_probe)
        ops = [np.kron(x, eye_p), np.kron(y, eye_p),
               np.kron(eye_s, xp), np.kron(eye_s, yp)]
    mean = np.array([fock.expectation(o, amplitudes).real for o in ops])
    # the truncated quadratures are Hermitian, so <{O_i, O_j}>/2 =
    # Re <O_i psi|O_j psi>: no operator product forms
    vecs = np.array([o @ amplitudes for o in ops])
    cov = (vecs.conj() @ vecs.T).real - np.outer(mean, mean)
    return mean, cov


def test_vacuum_state_and_uncertainty_boundary():
    v = vacuum_gaussian()
    assert_allclose(v.cov, 0.25 * np.eye(2))
    # vacuum saturates the uncertainty relation: min eig of cov + iJ/4 is 0
    def defect(state):
        return np.linalg.eigvalsh(state.cov + 0.25j * symplectic_form(
            state.n_modes)).min()

    assert abs(defect(v)) < 1e-12
    hot = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    assert defect(hot) > 0.2


def test_state_validation():
    with pytest.raises(DimensionMismatchError):
        GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(ParameterError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ParameterError):
        squeezed_vacuum_gaussian(-2.0)


def test_symplectic_condition_enforced():
    with pytest.raises(ParameterError):
        SymplecticTransform(2.0 * np.eye(2), np.zeros(2))
    # rotations, squeezes, the mixer and shifts all pass the J-check
    for t in (rotation_symplectic(0.7), squeeze_symplectic(0.4, 0.2),
              beam_splitter_symplectic(0.3), displacement_transform(1 + 2j)):
        j = symplectic_form(t.n_modes)
        assert_allclose(t.matrix @ j @ t.matrix.T, j, atol=1e-14)


def test_squeeze_zero_is_identity():
    t = squeeze_symplectic(0.0)
    assert_allclose(t.matrix, np.eye(2))
    assert_allclose(t.shift, 0.0)


def test_beam_splitter_near_unit_transmissivity():
    eps = 1e-6
    t = beam_splitter_symplectic(1.0 - eps)
    off = t.matrix.copy()
    off[:2, :2] -= np.eye(2) * off[0, 0]
    assert np.max(np.abs(t.matrix - np.eye(4))) < 2 * math.sqrt(eps)


def test_squeeze_variance_matches_fock():
    """squeeze(0.3) sends var(x) from 1/4 to e^{0.6}/4, same as the Fock side."""
    st = squeeze_symplectic(0.3).apply(vacuum_gaussian())
    assert_allclose(st.cov[0, 0], math.exp(0.6) / 4.0, rtol=1e-12)
    cut = 60
    vec = make_squeeze(0.3, cut).matrix @ fock.vacuum_state(cut).amplitudes
    mean, cov = fock_moments(vec, cut)
    assert_allclose(cov[0, 0], st.cov[0, 0], atol=1e-8)
    assert_allclose(cov[1, 1], st.cov[1, 1], atol=1e-8)


def test_squeezed_vacuum_gaussian_axes():
    st = squeezed_vacuum_gaussian(2.0, phase=0.6)
    m, v = quadrature_statistics(st, phase=0.6)
    assert_allclose(v, 0.5, rtol=1e-12)
    _, v_perp = quadrature_statistics(st, phase=0.6 + math.pi / 2)
    assert_allclose(v_perp, 0.125, rtol=1e-12)


def test_displacement_shifts_mean_only():
    st = displacement_transform(0.8 - 0.3j).apply(vacuum_gaussian())
    assert_allclose(st.mean, [0.8, -0.3])
    assert_allclose(st.cov, 0.25 * np.eye(2))


def test_rotation_moves_quadrature_angle():
    st = displacement_transform(1.0).apply(vacuum_gaussian())
    rot = rotation_symplectic(0.5).apply(st)
    m, _ = quadrature_statistics(rot, phase=0.5)
    assert_allclose(m, 1.0, rtol=1e-12)


def test_evolve_identity_and_purity_preserved():
    st = squeezed_vacuum_gaussian(3.0, 0.4)
    ident = SymplecticTransform(np.eye(2), np.zeros(2))
    assert_allclose(ident.apply(st).cov, st.cov)
    # purity: det cov = 1/16 per mode, preserved by any symplectic map
    for t in (squeeze_symplectic(0.7, 1.1), rotation_symplectic(2.0)):
        out = t.apply(st)
        assert_allclose(np.linalg.det(out.cov), 1.0 / 16.0, rtol=1e-12)


def test_two_mode_evolution_matches_fock_moments():
    """coherent x squeezed through the mixer, then a system squeeze: the
    oracle covariance equals Fock-side symmetrized second moments."""
    eta, cut = 0.36, 40
    joint = tensor_product(coherent_gaussian(0.6), squeezed_vacuum_gaussian(0.5))
    out = beam_splitter_symplectic(eta).apply(joint)
    out = system_mode(squeeze_symplectic(0.2)).apply(out)

    sys_state = fock.coherent_state(0.6, cut)
    probe = fock.squeezed_vacuum(0.5, cut)
    vec = joint_state(sys_state, probe).amplitudes
    vec = make_beam_splitter(eta, cut).matrix @ vec
    vec = joint_operator(make_squeeze(0.2, cut).matrix,
                         np.eye(cut)) @ vec
    mean, cov = fock_moments(vec, cut, cut)
    assert_allclose(mean, out.mean, atol=1e-8)
    assert_allclose(cov, out.cov, atol=1e-8)


def test_embed_and_compose():
    t1 = system_mode(squeeze_symplectic(0.3))
    t2 = beam_splitter_symplectic(0.5)
    both = SymplecticTransform(t2.matrix @ t1.matrix,
                               t2.matrix @ t1.shift + t2.shift)
    st = vacuum_gaussian(2)
    assert_allclose(both.apply(st).cov,
                    t2.apply(t1.apply(st)).cov, atol=1e-14)


# --- conditioning -----------------------------------------------------------


def test_condition_uncorrelated_leaves_marginal():
    joint = tensor_product(squeezed_vacuum_gaussian(2.0), vacuum_gaussian())
    val, reduced = condition_on_quadrature(joint, mode=1, phase=0.0, outcome=0.3)
    assert_allclose(reduced.mean, joint.mean[:2])
    assert_allclose(reduced.cov, joint.cov[:2, :2])
    assert_allclose(val, normal_pdf(0.3, 0.0, 0.25), rtol=1e-12)


def test_condition_covariance_outcome_independent():
    joint = beam_splitter_symplectic(0.5).apply(
        tensor_product(vacuum_gaussian(), squeezed_vacuum_gaussian(0.3)))
    _, r1 = condition_on_quadrature(joint, 1, 0.0, -1.2)
    _, r2 = condition_on_quadrature(joint, 1, 0.0, 2.0)
    assert_allclose(r1.cov, r2.cov, atol=0)  # exactly equal by construction


def test_condition_singular_variance_raises():
    degenerate = GaussianState(np.zeros(4), np.diag([0.25, 0.25, 1e-14, 0.25]))
    with pytest.raises(DegenerateCovarianceError):
        condition_on_quadrature(degenerate, 1, 0.0, 0.1)


def test_posterior_slope_value():
    # gain v/(v + Delta^2) = 0.8 for vacuum prior and Delta = 0.25
    m, _ = posterior_moments(0.0, 0.25, 0.25, 1.0)
    assert_allclose(m, 0.8, rtol=1e-12)
    m2, _ = posterior_moments(0.0, 0.25, 0.25, 0.5)
    assert_allclose(m2, 0.4, rtol=1e-12)


def test_measurement_arithmetic_consistency():
    v0, delta = 0.25, 0.25
    assert_allclose(outcome_moments(0.3, v0, delta), (0.3, 0.3125))
    _, vp = posterior_moments(0.0, v0, delta, 0.0)
    assert_allclose(vp, 0.05, rtol=1e-12)
    # pure-state back-action on the conjugate axis: 1.25 for Delta = 0.25
    assert_allclose(conjugate_variance_after(0.25, delta), 1.25, rtol=1e-12)


def test_gap_variance_is_prior_independent():
    """Monte-Carlo-free check of var(y - x) = Delta^2: integrate the two-step
    Gaussian chain explicitly for several priors."""
    delta = 0.18
    for v0 in (0.1, 0.25, 1.7):
        # E[(y-x)^2] = E_x[ vp + (g x' - x)^2 ] with x ~ N(0, v0 + Delta^2)
        g = v0 / (v0 + delta ** 2)
        vp = v0 * delta ** 2 / (v0 + delta ** 2)
        var_x = v0 + delta ** 2
        total = vp + (1 - g) ** 2 * var_x
        assert_allclose(total, delta ** 2, rtol=1e-12)


def test_condition_against_direct_formula():
    """Scheme-like conditioning: the probe marginal variance and posterior
    slope from the Schur update match the scalar Gaussian arithmetic."""
    eta, sigma = 0.5, 1.0
    delta2 = eta * sigma / 4.0
    pre = system_mode(squeeze_symplectic(-0.5 * math.log(1 - eta)))
    joint = tensor_product(vacuum_gaussian(), squeezed_vacuum_gaussian(sigma))
    evolved = beam_splitter_symplectic(eta).apply(pre.apply(joint))
    m, v = quadrature_statistics(evolved, mode=1, phase=0.0)
    assert_allclose(v, 0.25 + delta2, rtol=1e-12)
    assert_allclose(m, 0.0, atol=1e-15)
