"""Tests for outcome grids, reduction families, POM densities and state
reduction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadmeas.errors import (
    DimensionMismatchError,
    GridRangeError,
    ParameterError,
    ZeroProbabilityError,
)
from quadmeas.fock import (
    DensityOperator,
    StateVector,
    coherent_state,
    fock_state,
    quadrature_eigenvector_matrix,
    squeezed_vacuum,
    vacuum_state,
)
from quadmeas.gaussian import normal_pdf
from quadmeas.kernel import (
    OutcomeDensity,
    OutcomeGrid,
    PomDensity,
    ReductionOperatorFamily,
    vn_target_family,
    _cdf_rows,
    widen_grid_for_density,
)

from dense_reference import (
    at_outcome,
    born_density,
    conditional_density,
    function_of_quadrature,
    make_beam_splitter,
    make_displacement,
    make_phase_rotation,
    make_squeeze,
    pom_from_reduction,
    posterior_moments,
    quadrature_density,
    reduce_state,
    reduction_from_interaction,
)


# ---------------------------------------------------------------------------
# grids


def test_grid_from_spec_parses_and_round_trips():
    g = OutcomeGrid.from_spec("-2:2:0.5")
    assert len(g) == 9
    assert_allclose(g.points, np.arange(-2.0, 2.25, 0.5))
    assert g.step == pytest.approx(0.5)
    again = OutcomeGrid.from_spec(f"{g.x_min:g}:{g.x_max:g}:{g.step:g}")
    assert np.array_equal(again.points, g.points)


@pytest.mark.parametrize("bad", ["1:2", "a:b:c", "0:1:0", "2:1:0.1", ""])
def test_grid_bad_specs_rejected(bad):
    with pytest.raises(ParameterError):
        OutcomeGrid.from_spec(bad)


def test_grid_weights_are_trapezoid():
    g = OutcomeGrid.from_range(0.0, 1.0, 0.25)
    w = g.weights()
    assert_allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert w.sum() == pytest.approx(g.x_max - g.x_min)


def test_grid_covers_and_widened():
    g = OutcomeGrid.from_range(-1.0, 1.0, 0.1)
    gw = g.widened(0.35)
    assert gw.step == pytest.approx(g.step)
    assert gw.x_min <= -1.35 and gw.x_max >= 1.35
    # original points are a subset of the widened ones
    assert np.allclose(gw.points[4:25], g.points)


def test_grid_rejects_nonuniform_points():
    with pytest.raises(ParameterError):
        OutcomeGrid(np.array([0.0, 0.1, 0.3]))


# ---------------------------------------------------------------------------
# reduction families and POMs


def test_identity_interaction_gives_probe_wavefunction_times_identity():
    """With no coupling, the reduction operator is just the probe's outcome
    amplitude times the identity on the system."""
    n = 8
    grid = OutcomeGrid.from_range(-2.0, 2.0, 0.5)
    fam = reduction_from_interaction(np.eye(n * n), vacuum_state(n), grid)
    for i, x in enumerate(grid.points):
        chi0 = (2.0 / math.pi) ** 0.25 * math.exp(-x * x)
        assert_allclose(fam[i], chi0 * np.eye(n), atol=1e-12)


def test_family_shape_validation():
    grid = OutcomeGrid.from_range(-1.0, 1.0, 0.5)
    with pytest.raises(DimensionMismatchError):
        ReductionOperatorFamily(grid, np.zeros((3, 4, 4)))
    with pytest.raises(DimensionMismatchError):
        reduction_from_interaction(np.eye(10), vacuum_state(3), grid)


def test_at_outcome_snaps_to_nearest_point_and_bounds():
    grid = OutcomeGrid.from_range(-1.0, 1.0, 0.5)
    ops = np.arange(5)[:, None, None] * np.ones((5, 2, 2), dtype=complex)
    fam = ReductionOperatorFamily(grid, ops)
    assert at_outcome(fam, 0.6)[0, 0] == pytest.approx(3.0)
    with pytest.raises(GridRangeError):
        at_outcome(fam, 1.4)


def test_raw_beam_splitter_family_is_exact_on_conserved_sectors():
    """Beam-splitter coupling to a vacuum probe, probe quadrature read out:
    the reduction operator must equal its closed form

        D^dag(c x) S^dag(ln(eta)/2) eta^{-1/4} phi[(x - sqrt(1-eta) xq)/sqrt(eta)]

    with c = sqrt((1-eta)/eta), phi the vacuum wavefunction and xq the
    system quadrature.  Photon-number conservation makes the truncated
    computation exact on low Fock blocks, so the comparison is tight.
    """
    eta, cutoff, block = 0.5, 60, 16
    grid = OutcomeGrid.from_range(-2.0, 2.0, 0.5)
    fam = reduction_from_interaction(
        make_beam_splitter(eta, cutoff), vacuum_state(cutoff), grid)
    c = math.sqrt((1.0 - eta) / eta)
    sq = make_squeeze(0.5 * math.log(eta), cutoff).matrix
    for i, x in enumerate(grid.points):
        disp = make_displacement(c * x, cutoff).matrix
        kernel = function_of_quadrature(
            lambda s: (2.0 / math.pi) ** 0.25
            * np.exp(-((x - math.sqrt(1.0 - eta) * s) ** 2) / eta),
            cutoff)
        closed = disp.conj().T @ sq.conj().T @ (eta ** -0.25 * kernel)
        assert_allclose(fam[i][:block, :block], closed[:block, :block],
                        atol=1e-9)


def test_raw_family_completeness_is_machine_exact():
    """The probe-quadrature eigenvectors resolve the truncated identity
    exactly (orthonormal Hermite functions), and number conservation keeps
    sector arithmetic exact, so the weighted sum of pi(x) over a wide grid
    reproduces the identity on low blocks at machine precision."""
    fam = reduction_from_interaction(
        make_beam_splitter(0.5, 45), vacuum_state(45),
        OutcomeGrid.from_range(-8.0, 8.0, 0.05))
    assert fam.completeness_defect(15) < 1e-12


def test_pom_invariant_under_outcome_dependent_dressing():
    """pi(x) = Omega^dag Omega cannot change when each Omega(x) is
    multiplied on the left by any unitary, even an x-dependent one."""
    cutoff = 20
    grid = OutcomeGrid.from_range(-1.5, 1.5, 0.5)
    fam = reduction_from_interaction(
        make_beam_splitter(0.3, cutoff), vacuum_state(cutoff), grid)
    rot = make_phase_rotation(cutoff, 0.7)
    dressed_ops = np.stack([
        make_displacement(0.3 * x, cutoff).matrix @ rot @ fam[i]
        for i, x in enumerate(grid.points)])
    dressed = ReductionOperatorFamily(grid, dressed_ops, origin="compensated")
    assert_allclose(dressed.pom().matrices, fam.pom().matrices, atol=1e-12)


def test_pom_positivity_and_outcome_statistics_raw_route():
    """Raw beam-splitter statistics: the probe reads sqrt(1-eta) times the
    system quadrature plus scaled probe noise, so a coherent input gives
    mean sqrt(1-eta) Re(alpha) and variance (1-eta)/4 + eta/4 = 1/4."""
    eta, cutoff = 0.3, 45
    grid = OutcomeGrid.from_range(-6.0, 6.0, 0.05)
    fam = reduction_from_interaction(
        make_beam_splitter(eta, cutoff), vacuum_state(cutoff), grid)
    pom = pom_from_reduction(fam)
    assert min(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
               for m in pom.matrices) > -1e-10
    dens = born_density(coherent_state(0.8 + 0.0j, cutoff), pom)
    assert dens.normalization_defect() < 1e-9
    assert dens.mean() == pytest.approx(math.sqrt(1.0 - eta) * 0.8, abs=1e-8)
    assert dens.variance() == pytest.approx(0.25, abs=1e-8)


def test_raw_route_with_squeezed_probe_changes_noise_share():
    # outcome variance (1-eta) * v_sys + eta * sigma / 4
    eta, sigma, cutoff = 0.4, 2.0, 45
    grid = OutcomeGrid.from_range(-6.0, 6.0, 0.05)
    fam = reduction_from_interaction(
        make_beam_splitter(eta, cutoff), squeezed_vacuum(sigma, cutoff), grid)
    dens = born_density(vacuum_state(cutoff), fam.pom())
    assert dens.variance() == pytest.approx(
        (1.0 - eta) * 0.25 + eta * sigma / 4.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Born densities


def test_quadrature_density_of_vacuum_matches_normal_pdf():
    grid = OutcomeGrid.from_range(-4.0, 4.0, 0.1)
    dens = quadrature_density(vacuum_state(12), grid)
    assert_allclose(dens.values,
                    [normal_pdf(x, 0.0, 0.25) for x in grid.points],
                    atol=1e-12)


def test_quadrature_density_accepts_density_operators():
    grid = OutcomeGrid.from_range(-5.0, 5.0, 0.1)
    psi = coherent_state(0.5 + 0.3j, 30)
    d_vec = quadrature_density(psi, grid, phase=0.4)
    d_rho = quadrature_density(psi.density(), grid, phase=0.4)
    assert_allclose(d_rho.values, d_vec.values, atol=1e-12)


def test_born_density_rejects_grid_that_clips_the_distribution():
    fam = vn_target_family(0.3, OutcomeGrid.from_range(-0.6, 0.6, 0.1), 25)
    with pytest.raises(GridRangeError):
        born_density(vacuum_state(25), fam.pom())


def test_born_density_uniform_for_identity_pom():
    """A constant (identity) POM density is not normalizable; with the edge
    check disabled the density comes out flat with the normalization defect
    reporting the mismatch."""
    grid = OutcomeGrid.from_range(-1.0, 1.0, 0.1)
    pom = PomDensity(grid, np.broadcast_to(np.eye(6), (len(grid), 6, 6)))
    dens = born_density(fock_state(3, 6), pom, edge_tolerance=None)
    assert_allclose(dens.values, np.ones(len(grid)), atol=1e-12)
    assert dens.normalization() == pytest.approx(2.0, abs=1e-12)
    assert dens.normalization_defect() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(GridRangeError):
        born_density(fock_state(3, 6), pom)


def test_outcome_density_moments_and_cdf():
    grid = OutcomeGrid.from_range(-6.0, 6.0, 0.01)
    vals = np.array([normal_pdf(x, 0.7, 0.09) for x in grid.points])
    dens = OutcomeDensity(grid, vals)
    assert dens.mean() == pytest.approx(0.7, abs=1e-9)
    assert dens.variance() == pytest.approx(0.09, abs=1e-9)
    cdf = _cdf_rows(dens.values, grid.step)
    assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cdf) >= 0)


def test_outcome_density_cdf_requires_mass():
    grid = OutcomeGrid.from_range(0.0, 1.0, 0.5)
    with pytest.raises(ZeroProbabilityError):
        _cdf_rows(OutcomeDensity(grid, np.zeros(3)).values, grid.step)


# ---------------------------------------------------------------------------
# analytic Gaussian-projector target


def test_vn_target_rejects_bad_width_and_is_silent_on_coarse_grid():
    # The target is exact at each outcome, and no sum runs over its grid,
    # so a grid step above the kernel width attaches no warning.
    grid = OutcomeGrid.from_range(-3.0, 3.0, 0.5)
    fam = vn_target_family(0.3, grid, 20)
    assert fam.warnings == ()
    for delta in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            vn_target_family(delta, OutcomeGrid.from_range(-3, 3, 0.05), 20)


@pytest.mark.parametrize("phase", [0.0, 0.4])
@pytest.mark.parametrize("cutoff", [40, 60])
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.158, 0.6])
def test_vn_target_matches_trapezoid_kernel_integral(delta, cutoff, phase):
    """<m|Omega(x)|n> = int <m|y> g(x - y) <y|n> dy by the trapezoid rule
    on a fine y grid, with the Hermite functions of
    quadrature_eigenvector_matrix: no node or weight of the target's Gauss
    rule enters.  The two agree to 5.5e-15 to 1.6e-14 here; delta 0.05 is
    the sharp preset (eta 0.2, sigma 0.05)."""
    grid = OutcomeGrid.from_range(-3.0, 3.0, 0.25)
    step = min(0.01, delta / 8.0)
    pad = 15.0 * delta  # g(15 delta) / g(0) = e^{-56}
    ys = np.arange(grid.x_min - pad, grid.x_max + pad + 0.5 * step, step)
    chi = quadrature_eigenvector_matrix(ys, cutoff, phase)
    norm = (2.0 * math.pi * delta * delta) ** -0.25
    fam = vn_target_family(delta, grid, cutoff, phase)
    worst = 0.0
    for x, op in zip(grid.points, fam.operators):
        g = step * norm * np.exp(-((x - ys) ** 2) / (4.0 * delta * delta))
        ref = (chi.T * g) @ chi.conj()
        worst = max(worst, float(np.max(np.abs(op - ref))))
    assert worst < 5e-13


def test_vn_target_outcome_moments_match_convolution_oracle():
    """Gaussian kernel of width delta on top of an ideal projective
    measurement: outcome variance is input variance + delta^2."""
    delta, cutoff = 0.25, 40
    grid = OutcomeGrid.from_range(-8.0, 8.0, 0.05)
    fam = vn_target_family(delta, grid, cutoff)
    dens = born_density(vacuum_state(cutoff), fam.pom())
    assert dens.mean() == pytest.approx(0.0, abs=1e-9)
    assert dens.variance() == pytest.approx(0.25 + delta ** 2, abs=1e-8)
    dens_c = born_density(coherent_state(0.7 + 0.0j, cutoff), fam)
    assert dens_c.mean() == pytest.approx(0.7, abs=1e-8)
    assert dens_c.variance() == pytest.approx(0.25 + delta ** 2, abs=1e-8)


def test_vn_target_completeness_improves_with_cutoff_headroom():
    """Any finite-cutoff family under-resolves the identity because the
    sharp position kernel imparts conjugate-quadrature spread whose Fock
    tail crosses the cutoff.  The defect on a fixed low block must fall
    steeply as the cutoff headroom grows (measured: 2.1e-3 / 1.2e-5 /
    3.9e-8 at cutoffs 40 / 60 / 80 for width 0.25)."""
    grid = OutcomeGrid.from_range(-12.0, 12.0, 0.05)
    d40 = vn_target_family(0.25, grid, 40).completeness_defect(15)
    fam60 = vn_target_family(0.25, grid, 60)
    d60 = fam60.completeness_defect(15)
    assert d60 < 5e-5
    assert d60 < 1e-2 * d40
    assert fam60.pom().completeness_defect(15) == pytest.approx(d60, rel=1e-6)


def test_fitted_kernel_width_recovers_delta():
    delta, cutoff = 0.35, 40
    grid = OutcomeGrid.from_range(-8.0, 8.0, 0.05)
    dens = born_density(vacuum_state(cutoff),
                        vn_target_family(delta, grid, cutoff).pom())
    # the outcome density is the vacuum's N(0, 1/4) convolved with
    # N(0, delta^2)
    fitted = math.sqrt(dens.variance() - 0.25)
    assert fitted == pytest.approx(delta, abs=1e-7)


# ---------------------------------------------------------------------------
# state reduction


def test_reduce_state_posterior_moments_match_gaussian_oracle():
    """Conditioning vacuum on outcome x through a width-delta Gaussian
    kernel shifts the mean by the Gaussian posterior gain v/(v+delta^2) and
    contracts the variance to v delta^2/(v+delta^2)."""
    delta, cutoff, x = 0.25, 50, 0.5
    grid = OutcomeGrid.from_range(-8.0, 8.0, 0.05)
    fam = vn_target_family(delta, grid, cutoff)
    _, post = reduce_state(vacuum_state(cutoff), at_outcome(fam, x))
    mean, var = posterior_moments(0.0, 0.25, delta, x)
    assert mean == pytest.approx(0.4)
    post_dens = quadrature_density(post, OutcomeGrid.from_range(-4, 4, 0.02))
    assert post_dens.mean() == pytest.approx(mean, abs=1e-7)
    assert post_dens.variance() == pytest.approx(var, abs=1e-7)
    # conjugate quadrature anti-squeezes to keep the uncertainty product
    conj = quadrature_density(post, OutcomeGrid.from_range(-8, 8, 0.02),
                              phase=math.pi / 2.0)
    assert conj.variance() == pytest.approx(1.0 / (16.0 * var), abs=1e-6)


def test_reduce_state_probability_matches_born_density():
    delta, cutoff, x = 0.3, 40, 0.8
    grid = OutcomeGrid.from_range(-8.0, 8.0, 0.05)
    fam = vn_target_family(delta, grid, cutoff)
    p, _ = reduce_state(vacuum_state(cutoff), at_outcome(fam, x))
    dens = born_density(vacuum_state(cutoff), fam.pom())
    i = int(np.argmin(np.abs(grid.points - x)))
    assert p == pytest.approx(dens.values[i], rel=1e-10)


def test_reduce_state_density_operator_path_preserves_purity():
    delta, cutoff = 0.3, 40
    fam = vn_target_family(delta, OutcomeGrid.from_range(-8, 8, 0.05), cutoff)
    rho = vacuum_state(cutoff).density()
    p_rho, post_rho = reduce_state(rho, at_outcome(fam, 0.6))
    p_vec, post_vec = reduce_state(vacuum_state(cutoff), at_outcome(fam, 0.6))
    assert p_rho == pytest.approx(p_vec, rel=1e-12)
    purity = np.trace(post_rho.matrix @ post_rho.matrix).real
    assert purity == pytest.approx(1.0, abs=1e-9)
    assert_allclose(post_rho.matrix, post_vec.density().matrix, atol=1e-10)


def test_reduce_state_zero_probability_raises():
    with pytest.raises(ZeroProbabilityError):
        reduce_state(vacuum_state(8), np.zeros((8, 8)))


def test_conditional_density_is_ideal_second_measurement():
    """An ideal projective follow-up on the conditioned state has the
    posterior variance (no second kernel widening)."""
    delta, cutoff = 0.25, 50
    fam = vn_target_family(delta, OutcomeGrid.from_range(-8, 8, 0.05), cutoff)
    dens = conditional_density(vacuum_state(cutoff), fam, 0.5, 0.0,
                               OutcomeGrid.from_range(-4, 4, 0.02))
    assert dens.mean() == pytest.approx(0.4, abs=1e-7)
    assert dens.variance() == pytest.approx(0.05, abs=1e-7)


def test_widen_grid_for_density_reaches_quiet_edges():
    start = OutcomeGrid.from_range(-0.5, 0.5, 0.05)
    fn = lambda xs: np.exp(-2.0 * xs ** 2)
    g, vals = widen_grid_for_density(fn, start)
    assert np.array_equal(vals, fn(g.points))
    assert max(vals[0], vals[-1]) <= 1e-8 * vals.max()
    assert g.step == pytest.approx(start.step)
