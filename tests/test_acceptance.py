"""End-to-end acceptance checks for the shipped guarantees, one test per
guarantee.  Every test prints a single PASS line with its measured figure
once the assertions hold, so a verbose run reads as a checklist.

Tolerances here are pinned contract values, not tunables: loosening one
is a behavior change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from quadmeas.cli import main as cli_main
from quadmeas.fock import (
    coherent_state,
    fock_state,
    squeezed_vacuum,
    trace_distance,
    vacuum_state,
)
from quadmeas.gaussian import GaussianState, coherent_gaussian, normal_pdf
from quadmeas.kernel import (
    OutcomeDensity,
    OutcomeGrid,
    widen_grid_for_density,
)
from quadmeas.montecarlo import (
    RngSeed,
    TrialEngine,
    _InverseCdf,
    summarize_repeatability,
)
from quadmeas.scheme import (
    GaussianSchemeOracle,
    SchemeFamilyBuilder,
    SchemeParams,
    StageMask,
    build_scheme_family,
    composed_density,
    composed_reductions,
    measurement_width,
    verify_bch_factorization,
)

from dense_reference import (
    ks_critical_value,
    laguerre_displacement,
    quadrature_density,
)

PRESETS = [(eta, sigma) for eta in (0.2, 0.5, 0.8)
           for sigma in (0.5, 1.0, 2.0)]
GRID_25 = OutcomeGrid.from_range(-3.0, 3.0, 0.25)


def _params(eta, sigma, cutoff, grid=GRID_25):
    return SchemeParams(eta=eta, sigma=sigma, cutoff=cutoff, grid=grid)


def _vacuum_density(params, base_grid, edge_tolerance=1e-8):
    psi = vacuum_state(params.cutoff)
    grid, vals = widen_grid_for_density(
        lambda pts: composed_density(params, psi, pts),
        base_grid, edge_tolerance=edge_tolerance)
    return OutcomeDensity(grid, vals)


def _fitted_width(density):
    """The kernel width a vacuum outcome density implies: it is N(0, 1/4)
    convolved with N(0, Delta^2), so Delta^2 = var - 1/4."""
    return math.sqrt(density.variance() - 0.25)


@pytest.fixture(scope="module")
def factorization_reports():
    return {eta: verify_bch_factorization(eta, cutoff=40, block_total=10)
            for eta in (0.3, 0.5, 0.7)}


def test_scheme_operators_match_target_kernel_family():
    # pipeline vs closed-form reduction family, phase-fitted per outcome,
    # on the leading 16 Fock levels over 25 outcomes in [-3, 3]
    worst = 0.0
    for eta, sigma in PRESETS:
        start = time.monotonic()
        res = build_scheme_family(_params(eta, sigma, 60), margin=3.5)
        elapsed = time.monotonic() - start
        assert res.max_deviation <= 1e-6, (eta, sigma, res.max_deviation)
        assert elapsed <= 60.0, (eta, sigma, elapsed)
        worst = max(worst, res.max_deviation)
    print(f"PASS scheme-vs-target identity: max deviation {worst:.3e} "
          f"<= 1e-6 over {len(PRESETS)} presets")


def test_kernel_width_square_root_law():
    # fitted Gaussian width of the vacuum outcome density must equal
    # sqrt(eta * sigma) / 2 after removing the input variance 1/4
    worst = 0.0
    for eta, sigma in PRESETS:
        density = _vacuum_density(_params(eta, sigma, 40), GRID_25)
        fit = _fitted_width(density)
        worst = max(worst, abs(fit - measurement_width(eta, sigma)))
    assert worst <= 1e-6
    pinned = _fitted_width(_vacuum_density(_params(0.25, 2.0, 40), GRID_25))
    assert abs(pinned - 0.353553) <= 1e-6
    print(f"PASS width law: max |fit - sqrt(eta sigma)/2| {worst:.3e} "
          f"<= 1e-6; eta=0.25 sigma=2 fit {pinned:.6f}")


def test_pom_invariant_under_compensation_dressing():
    # the outcome-dependent feedback and back-squeeze dressings must not
    # move the probability operators at all
    undressed = StageMask(pre_squeeze=True, feedback=False,
                          back_squeeze=False)
    dressings = (StageMask(True, True, True), StageMask(True, True, False),
                 StageMask(True, False, True))
    worst = 0.0
    for eta, sigma in PRESETS:
        builder = SchemeFamilyBuilder(_params(eta, sigma, 60), 3.5)

        def pom(mask):  # the dressings applied at working size
            w = builder._finish(np.array([-3.0, 0.0, 3.0]), mask,
                                builder._unit_readout(mask.pre_squeeze,
                                                      16)[:, :, :16])
            return w.conj().transpose(0, 2, 1) @ w

        base = pom(undressed)
        for mask in dressings:
            worst = max(worst, float(np.max(np.abs(pom(mask) - base))))
    assert worst <= 1e-10
    print(f"PASS POM dressing invariance: max deviation {worst:.3e} "
          f"<= 1e-10")


def test_mixer_factorization_and_su2_algebra(factorization_reports):
    worst_fac, worst_su2 = 0.0, 0.0
    for eta, rep in factorization_reports.items():
        worst_fac = max(worst_fac, rep.factorization_deviation)
        worst_su2 = max(worst_su2, rep.su2_plus_minus_deviation,
                        rep.su2_z_plus_deviation, rep.su2_z_minus_deviation)
    assert worst_fac <= 1e-8
    assert worst_su2 <= 1e-10
    print(f"PASS mixer factorization: deviation {worst_fac:.3e} <= 1e-8, "
          f"su(2) commutators {worst_su2:.1e} <= 1e-10")


def test_mixer_generator_forms_agree(factorization_reports):
    worst = max(rep.generator_form_deviation
                for rep in factorization_reports.values())
    assert worst <= 1e-10
    print(f"PASS generator-form equality: deviation {worst:.3e} <= 1e-10")


def test_gaussian_oracle_equivalence_and_convolution_law():
    inputs = [
        (lambda c: vacuum_state(c), None),
        (lambda c: coherent_state(0.8, c), coherent_gaussian(0.8)),
        (lambda c: squeezed_vacuum(0.6, c),
         GaussianState([0.0, 0.0], np.diag([0.25 * 0.6, 0.25 / 0.6]))),
    ]
    worst_density, worst_moment = 0.0, 0.0
    for eta, sigma in PRESETS:
        params = _params(eta, sigma, 60)
        for make_state, gauss_input in inputs:
            psi = make_state(60)
            grid, vals = widen_grid_for_density(
                lambda pts: composed_density(params, psi, pts),
                GRID_25, edge_tolerance=1e-10)
            mean, var = GaussianSchemeOracle(
                _params(eta, sigma, 60), gauss_input).outcome_moments()
            oracle = normal_pdf(grid.points, mean, var)
            density = OutcomeDensity(grid, vals)
            worst_density = max(worst_density,
                                float(np.max(np.abs(vals - oracle))))
            worst_moment = max(worst_moment, abs(density.mean() - mean),
                               abs(density.variance() - var))
    assert worst_density <= 1e-8
    assert worst_moment <= 1e-8

    # outcome density = ideal quadrature density smeared by the Gaussian
    # kernel, including for a non-Gaussian input
    params = _params(0.5, 1.0, 60)
    delta = measurement_width(0.5, 1.0)
    fine = OutcomeGrid.from_range(-8.0, 8.0, 0.02)
    worst_conv = 0.0
    for state in (fock_state(1, 60), coherent_state(1.0, 60)):
        ideal = quadrature_density(state, fine, 0.0).values
        smeared = np.array([
            np.trapezoid(ideal * normal_pdf(x - fine.points, 0.0, delta**2),
                         fine.points)
            for x in GRID_25.points])
        direct = composed_density(params, state, GRID_25.points)
        worst_conv = max(worst_conv,
                         float(np.max(np.abs(smeared - direct))))
    assert worst_conv <= 1e-6
    print(f"PASS oracle equivalence: density {worst_density:.3e} and "
          f"moments {worst_moment:.3e} <= 1e-8; convolution law "
          f"{worst_conv:.3e} <= 1e-6")


def test_pom_resolves_identity_on_wide_grid():
    wide = OutcomeGrid.from_range(-8.0, 8.0, 0.02)
    worst = 0.0
    for eta, sigma in ((0.5, 1.0), (0.2, 0.5), (0.8, 2.0)):
        builder = SchemeFamilyBuilder(_params(eta, sigma, 60), 3.5)
        worst = max(worst, builder.completeness_defect(wide, 16))
    assert worst <= 1e-4
    print(f"PASS completeness: max |sum h POM - 1| {worst:.3e} <= 1e-4 "
          f"on 16 levels, grid [-8, 8] step 0.02")


def test_reduction_preserves_purity_of_pure_inputs():
    worst = 0.0
    for eta, sigma in PRESETS:
        oms = composed_reductions(_params(eta, sigma, 40), [-1.0, 0.0, 1.5],
                                  np.eye(40), 40)
        for psi in (vacuum_state(40).amplitudes,
                    coherent_state(0.7, 40).amplitudes):
            rho = np.outer(psi, psi.conj())
            for om in oms:
                post = om @ rho @ om.conj().T
                post /= np.trace(post).real
                purity = float(np.trace(post @ post).real)
                worst = max(worst, abs(purity - 1.0))
    assert worst <= 1e-9
    print(f"PASS purity preservation: max |Tr rho^2 - 1| {worst:.3e} "
          f"<= 1e-9")


def test_finite_lo_feedback_converges_to_ideal_displacement():
    from quadmeas.montecarlo import finite_lo_displacement

    ref = coherent_state(0.5, 30)
    disp = laguerre_displacement(1.0, 30)
    base = np.outer(ref.amplitudes, ref.amplitudes.conj())
    ideal = disp @ base @ disp.conj().T

    err_large = trace_distance(finite_lo_displacement(ref, 1.0, 1e3), ideal)
    assert err_large <= 1e-3

    errs = [trace_distance(finite_lo_displacement(ref, 1.0, b), ideal)
            for b in (10.0, 20.0, 40.0)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    for ratio in ratios:
        assert 3.0 <= ratio <= 5.0          # 4x per doubling, +-25%
    print(f"PASS finite-LO convergence: error {err_large:.3e} <= 1e-3 at "
          f"amplitude ratio 1e-3; doubling ratios "
          f"{ratios[0]:.2f}, {ratios[1]:.2f} in [3, 5]")


def test_sampling_statistics_and_reproducibility(tmp_path, monkeypatch):
    # 1e5 draws per preset against the closed-form outcome distribution
    n = 100_000
    critical = ks_critical_value(n, 0.01)
    worst_ks = 0.0
    base = OutcomeGrid.from_range(-3.0, 3.0, 0.05)
    for eta, sigma in PRESETS:
        density = _vacuum_density(_params(eta, sigma, 40, base), base)
        draws = np.sort(_InverseCdf(density)(
            RngSeed(17, f"{eta}/{sigma}").generator().random(n)))
        mean, var = GaussianSchemeOracle(
            _params(eta, sigma, 40, base)).outcome_moments()
        z = (draws - mean) / math.sqrt(2.0 * var)
        cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in z]))
        steps = np.arange(1, n + 1) / n
        ks = max(float(np.max(steps - cdf)),
                 float(np.max(cdf - (steps - 1.0 / n))))
        assert ks < critical, (eta, sigma, ks)
        worst_ks = max(worst_ks, ks)

    # re-measuring the same quadrature: var(y - x) equals the squared
    # kernel width, prior-independent
    n_rep = 10_000
    grid = OutcomeGrid.from_range(-3.0, 3.0, 0.1)
    batch = TrialEngine(
        SchemeParams(eta=0.5, sigma=0.5, cutoff=40, grid=grid)).trials(
            RngSeed(21), n_rep, want_second=True)
    stats = summarize_repeatability(batch.outcome, batch.second_outcome)
    oracle = 0.25 ** 2
    three_se = 3.0 * oracle * math.sqrt(2.0 / (n_rep - 1))
    assert abs(stats.diff_variance - oracle) < three_se

    # fixed seeds reproduce the emitted artifact byte for byte
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--trials", "200", "--seed", "9", "--repeat"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    print(f"PASS sampling statistics: worst KS {worst_ks:.5f} < "
          f"{critical:.5f} at 1%; var(y-x) {stats.diff_variance:.5f} within "
          f"3 SE of {oracle}; seeded artifacts byte-identical")
