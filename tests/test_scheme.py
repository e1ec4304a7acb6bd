"""Tests for the beam-splitter/squeezer/feedback measurement pipeline."""

import cmath
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import comb, gammaln

from quadmeas import fock, scheme
from quadmeas.cli import _SCHEMA
from quadmeas.errors import InfeasibleFeedbackError, ParameterError
from quadmeas.fock import (
    StateVector,
    make_quadrature,
    quadrature_eigenvector_matrix,
    squeezed_vacuum,
)
from quadmeas.gaussian import displacement_transform, vacuum_gaussian
from quadmeas.kernel import (
    OutcomeDensity,
    OutcomeGrid,
    ReductionOperatorFamily,
    vn_target_family,
)
from quadmeas.scheme import (
    BchReport,
    FeedbackSpec,
    GaussianSchemeOracle,
    SchemeFamilyBuilder,
    SchemeParams,
    StageMask,
    backsqueeze_param,
    build_scheme_family,
    composed_density,
    composed_reductions,
    feedback_coefficient,
    feedback_displacement,
    measurement_width,
    presqueeze_param,
    verify_bch_factorization,
)

from dense_reference import (
    _bs_sector_blocks,
    _tridiagonal_expm_columns,
    born_density,
    eigen_route_squeeze,
    gram_completeness_defect,
    laguerre_displacement,
    make_beam_splitter,
    make_phase_rotation,
    make_squeeze,
    quadrature_density,
    quadrature_spectrum,
    reduce_state,
)

VACUUM_VAR = 0.25


def passes_verify(res):
    """Whether a PipelineResult meets verify's three scheme checks at the
    CLI's default tolerances."""
    return res.max_deviation <= _SCHEMA["identity_tol"][1] \
        and res.pom_deviation <= _SCHEMA["pom_tol"][1] \
        and res.completeness_defect_family <= _SCHEMA["completeness_tol"][1]


def builder_outcomes(b, xs, mask, width):
    """The builder's Omega(x) on its n_work rows and the leading ``width``
    unit columns, through the path that family and completeness_defect run
    (_unit_readout, then _finish), with R_phi on both sides."""
    vc = b._unit_readout(mask.pre_squeeze, width)[:, :, :width]
    out = b._finish(np.asarray(xs, dtype=float), mask, vc)
    if b.params.phi:
        rot = np.exp(1j * b.params.phi * np.arange(b.n_work))
        out = rot[:, None] * out * rot[:width].conj()
    return out


@pytest.fixture(scope="module")
def canonical_result():
    return build_scheme_family(SchemeParams(eta=0.5, sigma=1.0))


CANONICAL = SchemeParams(eta=0.5, sigma=1.0)


def vacuum(cutoff):
    v = np.zeros(cutoff)
    v[0] = 1.0
    return v


def coherent(alpha, cutoff):
    amps = np.empty(cutoff)
    amps[0] = math.exp(-alpha * alpha / 2.0)
    for n in range(1, cutoff):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def stage_squeeze(r, n):
    # the library's squeeze matrix: its one stage at t = 0 on unit columns
    return scheme._squeeze_displace(r, [0.0], np.eye(n), n)[0]


def quad_variance(vec, cutoff, phase=0.0):
    xq = make_quadrature(cutoff, phase)
    mean = np.vdot(vec, xq @ vec).real
    return float(np.vdot(vec, (xq @ xq) @ vec).real - mean**2)


# ---------------------------------------------------------------------------
# parameters and stage arithmetic


def test_params_validation():
    with pytest.raises(ParameterError):
        SchemeParams(eta=0.0, sigma=1.0)
    with pytest.raises(ParameterError):
        SchemeParams(eta=1.0, sigma=1.0)
    with pytest.raises(ParameterError):
        SchemeParams(eta=0.5, sigma=0.0)
    with pytest.raises(ParameterError):
        SchemeParams(eta=0.5, sigma=1.0, cutoff=1)


def test_params_defaults_and_derived_width():
    p = SchemeParams(eta=0.5, sigma=1.0)
    assert p.phi_probe == p.phi == 0.0
    assert len(p.grid) == 25 and p.grid.x_min == -3.0 and p.grid.x_max == 3.0
    assert_allclose(p.delta, math.sqrt(0.5) / 2.0, rtol=0, atol=1e-15)
    q = SchemeParams(eta=0.5, sigma=1.0, phi=0.4)
    assert q.phi_probe == 0.4  # probe frame follows the working phase


def test_stage_parameter_arithmetic():
    assert_allclose(presqueeze_param(0.75), math.log(2.0), atol=1e-15)
    assert 0 < presqueeze_param(1e-6) < 1.1e-6
    assert_allclose(backsqueeze_param(0.5), -math.log(2.0), atol=1e-15)
    assert_allclose(backsqueeze_param(0.3), backsqueeze_param(0.7), atol=1e-15)
    assert_allclose(backsqueeze_param(0.3, pre_squeezed=False),
                    0.5 * math.log(0.3), atol=1e-15)
    assert_allclose(measurement_width(0.25, 2.0), 0.5 / math.sqrt(2.0),
                    atol=1e-12)


def test_presqueeze_stage_sets_working_quadrature_variance():
    # the pre-squeezer amplifies the working quadrature: var -> 1/(4(1-eta))
    eta, cutoff = 0.5, 60
    op = make_squeeze(presqueeze_param(eta), cutoff).matrix
    var = quad_variance(op @ vacuum(cutoff), cutoff)
    assert_allclose(var, VACUUM_VAR / (1.0 - eta), atol=1e-9)


def test_backsqueeze_cancels_residual_dressing():
    # the back stage is the adjoint partner of the squeeze back-action left
    # by the uncompensated pipeline
    q = backsqueeze_param(0.3)
    back = make_squeeze(q, 60).matrix
    residual = make_squeeze(q, 60).matrix.conj().T
    assert np.max(np.abs((back @ residual - np.eye(60))[:48, :48])) < 1e-10


def test_feedback_amplitude():
    assert feedback_displacement(0.0, 0.3) == 0.0
    assert_allclose(feedback_coefficient(0.5), 1.0, atol=1e-15)
    assert_allclose(feedback_displacement(1.0, 0.5), 1.0 + 0.0j, atol=1e-15)
    amp = feedback_displacement(0.8, 0.4, phi=0.3)
    assert_allclose(amp, math.sqrt(1.5) * 0.8 * np.exp(0.3j), atol=1e-14)


def test_displacement_matches_laguerre_oracle():
    # D(t) alone (s = 0) on the shared unit columns, every level kept
    amps = np.array([0.0, 0.3, -2.2, 1.5, -4.0, 6.0])
    for n in (2, 30, 60, 100):
        got = scheme._squeeze_displace(0.0, amps, np.eye(n), n)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - laguerre_displacement(amps, n))) < 1e-13


def test_displaced_columns_match_laguerre_oracle():
    # complex columns, shared and per outcome as a readout (sum_p lead[x,
    # p] cols[p]), at odd and even n, keeping fewer, as many and more rows
    # than the columns have levels
    rng = np.random.default_rng(4)
    amps = np.array([0.0, 0.3, -2.2, 1.5, 4.0, -6.0, -5.5])
    lead = rng.normal(size=(len(amps), 3)) + 1j * rng.normal(size=(7, 3))
    for n in (59, 60):
        stack = rng.normal(size=(3, n, 7)) + 1j * rng.normal(size=(3, n, 7))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        own = np.einsum("xp,pnc->xnc", lead, stack)
        for rows in (n // 3, n, n + 5):
            disp = laguerre_displacement(amps, rows + n)[:, :rows, :n]
            got = scheme._squeeze_displace(0.0, amps, stack[0], rows)
            assert got.shape == (len(amps), rows, 7)
            assert np.max(np.abs(got - disp @ stack[0])) < 1e-13
            got = scheme._squeeze_displace(0.0, amps, stack, rows, lead=lead)
            assert got.shape == (len(amps), rows, 7)
            assert np.max(np.abs(got - disp @ own)) < 1e-12


@pytest.mark.parametrize("n,amps", [
    (59, [0.0, 0.4, -2.9, 1.7]),
    (75, [2.5, -3.0]),
    (60, [-5.5, 4.0]),
    (160, [5.5, -1.0, 0.0])])
def test_real_displacement_matches_laguerre_oracle(n, amps):
    # real signed amplitudes on real columns per outcome (the readout of a
    # unit lead, which picks cols[x] for outcome x) stay real, on all the
    # rows and on fewer
    amps = np.array(amps)
    cols = np.random.default_rng(n).normal(size=(len(amps), n, 5))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    for rows in (n, n // 3):
        got = scheme._squeeze_displace(0.0, amps, cols, rows,
                                       lead=np.eye(len(amps)))
        assert got.dtype == np.float64
        want = laguerre_displacement(amps, n)[:, :rows] @ cols
        assert np.max(np.abs(got - want)) < 1e-13


def test_squeezed_displacement_matches_squeeze_times_laguerre():
    # S(s) D(t) against the product of the squeeze (the stage at t = 0)
    # and the closed-form displacement at 700 levels, where truncation
    # moves no compared entry; the eigen route would need about 7700
    n, rows = 60, 40
    disps = {t: laguerre_displacement(t, 700)[:, :n] for t in (2.5, -2.5)}
    for s in (0.8, -1.2):
        squeeze = scheme._squeeze_displace(s, [0.0], np.eye(700), rows)[0]
        for t, disp in disps.items():
            got = scheme._squeeze_displace(s, [t], np.eye(n), rows)[0]
            assert np.max(np.abs(got - squeeze @ disp)) < 1e-13


def test_displacement_column_zero_is_the_coherent_state():
    n = 210
    k = np.arange(n)
    for alpha in (5.0, -9.0):
        closed = np.exp(-0.5 * alpha ** 2 + k * np.log(abs(alpha))
                        - 0.5 * gammaln(k + 1)) * np.sign(alpha) ** k
        col = scheme._squeeze_displace(0.0, [alpha], np.eye(n)[:, :1],
                                       n)[0, :, 0]
        assert np.max(np.abs(col - closed)) < 2e-14


def test_stage_chunks_the_outcomes_without_moving_an_entry(monkeypatch):
    # a budget of 3 outcomes of 50 nodes times (max(n, rows) + c) = 100
    # splits 8 outcomes into chunks of 3, 3 and 2; each outcome's entries
    # are the same as in one chunk
    amps = np.linspace(-3.0, 3.0, 8)
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(4, 80, 20))
    lead = rng.normal(size=(8, 4))
    whole = scheme._squeeze_displace(0.3, amps, stack, 20, lead=lead)
    calls = []
    chunked = scheme._chunked

    def counting(fn, n_out, nodes, width):
        calls.append((n_out, nodes, width))
        return chunked(fn, n_out, nodes, width)

    monkeypatch.setattr(scheme, "_chunked", counting)
    monkeypatch.setattr(scheme, "_STACK_ELEMENTS", 3 * 50 * 100)
    parts = []
    hermite = scheme.fock._hermite_functions
    monkeypatch.setattr(scheme.fock, "_hermite_functions",
                        lambda xs, n: parts.append(len(xs)) or hermite(xs, n))
    got = scheme._squeeze_displace(0.3, amps, stack, 20, lead=lead)
    assert calls == [(8, 50, 100)]
    assert sorted(set(parts) - {50}) == [2 * 50, 3 * 50]
    assert np.max(np.abs(got - whole)) == 0.0


def test_feedback_matches_dressing_amplitude():
    # displacing by the feedback amplitude must invert the translation left
    # by the uncompensated pipeline
    eta, x, cutoff = 0.4, 0.8, 80
    fb = feedback_displacement(x, eta)
    undo = laguerre_displacement(fb, cutoff) @ laguerre_displacement(
        feedback_coefficient(eta) * x, cutoff).conj().T
    assert np.max(np.abs(undo[:20, :20] - np.eye(80)[:20, :20])) < 1e-10


# ---------------------------------------------------------------------------
# parametric-amplifier stage bookkeeping


def psa_stages(p: SchemeParams):
    """The scheme module's pump-phase table: (intensity gain, pump phase)
    of the amplifier realizing each squeeze stage, every pump a quarter
    period from the quadrature the stage squeezes."""
    half_pi = 0.5 * math.pi
    return {"pre": (1.0 / (1.0 - p.eta), p.phi + half_pi),
            "probe": (p.sigma, p.phi_probe + half_pi),
            "back": (p.eta * (1.0 - p.eta), p.phi + half_pi)}


def psa_squeeze(gain, pump_phase, cutoff):
    """A gain-G amplifier pumped at psi deamplifies the quadrature at psi
    by G^{1/2}: the squeeze S(-ln(G)/2) along psi."""
    return make_squeeze(-0.5 * math.log(gain), cutoff,
                        phase=pump_phase).matrix


def test_psa_gains_from_params():
    stages = psa_stages(SchemeParams(eta=0.5, sigma=1.0))
    assert_allclose([stages[k][0] for k in ("pre", "back", "probe")],
                    (2.0, 0.25, 1.0), atol=1e-15)


def test_psa_gain_one_probe_stage_is_identity():
    op = psa_squeeze(*psa_stages(SchemeParams(eta=0.5, sigma=1.0))["probe"],
                     30)
    assert_allclose(op, np.eye(30), atol=1e-14)


def test_psa_gain_four_quarters_working_variance():
    # a gain-G amplifier pumped on the working quadrature maps
    # var(x) -> var(x)/G
    op = psa_squeeze(4.0, 0.0, 60)
    var = quad_variance(op @ vacuum(60).astype(complex), 60)
    assert_allclose(var, 1.0 / 16.0, atol=1e-9)


def test_psa_pump_phase_reproduces_plain_squeezers():
    # pumping a quarter period away from the working quadrature flips the
    # sign of the squeeze parameter, so each stage equals a plain squeezer
    for phi in (0.0, 0.3):
        p = SchemeParams(eta=0.3, sigma=1.7, phi=phi)
        stages = psa_stages(p)
        pairs = [
            (stages["pre"], presqueeze_param(p.eta)),
            (stages["back"], backsqueeze_param(p.eta)),
            (stages["probe"], 0.5 * math.log(p.sigma)),  # prepares var sigma/4
        ]
        for stage, param in pairs:
            direct = make_squeeze(param, 40, phase=phi).matrix
            via_stage = psa_squeeze(*stage, 40)
            assert np.max(np.abs(via_stage - direct)) < 1e-12


# ---------------------------------------------------------------------------
# feedback feasibility


def test_feedback_spec_validation():
    with pytest.raises(ParameterError):
        FeedbackSpec(mode="nonsense")
    with pytest.raises(ParameterError):
        FeedbackSpec(mode="finite-lo")  # needs a local-oscillator amplitude
    assert FeedbackSpec.ideal().theta(5.0) == 1.0


def test_finite_lo_transmission_law():
    fb = FeedbackSpec.finite_lo(10.0)
    assert_allclose(fb.theta(1.0), 0.99, atol=1e-15)
    with pytest.raises(InfeasibleFeedbackError):
        fb.theta(10.0)


def test_finite_lo_grid_feasibility():
    p = SchemeParams(eta=0.2, sigma=1.0)  # coefficient 2, worst |x| = 3
    with pytest.raises(InfeasibleFeedbackError):
        FeedbackSpec.finite_lo(5.0).validate_for(p)
    FeedbackSpec.finite_lo(1e3).validate_for(p)


# ---------------------------------------------------------------------------
# the composed pipeline against its analytic target


def test_pipeline_identity_canonical_preset(canonical_result):
    res = canonical_result
    assert res.max_deviation < 1e-10
    assert res.pom_deviation < 1e-10
    assert res.completeness_defect_family < 1e-10
    assert passes_verify(res)


def test_pipeline_identity_stressed_presets():
    # strong squeezing (eta=0.8, sigma=2) and a sharp kernel (eta=0.2,
    # sigma=0.5, width 0.158) sit at the corners of the preset grid
    res = build_scheme_family(SchemeParams(eta=0.8, sigma=2.0))
    assert res.max_deviation < 1e-6
    sharp = build_scheme_family(SchemeParams(eta=0.2, sigma=0.5))
    assert sharp.max_deviation < 1e-10
    # the exact target needs no grid step below its width
    assert sharp.target.warnings == ()


def test_pipeline_rejects_finite_lo_feedback():
    with pytest.raises(ParameterError):
        build_scheme_family(SchemeParams(eta=0.5, sigma=1.0),
                            feedback=FeedbackSpec.finite_lo(1e3))


def test_pipeline_identity_fits_no_phase(monkeypatch):
    # the deviation is entrywise on the block: a family off the target by
    # one phase e^{0.3i} per outcome reads |1 - e^{0.3i}| times the largest
    # entry of the block, which a fitted phase would hide
    exact = SchemeFamilyBuilder.family

    def turned(self, grid=None, mask=StageMask()):
        fam = exact(self, grid, mask)
        return ReductionOperatorFamily(fam.grid,
                                       fam.operators * cmath.exp(0.3j),
                                       fam.origin, fam.warnings)

    monkeypatch.setattr(SchemeFamilyBuilder, "family", turned)
    # a turned family never meets the exact composition, so the size rule
    # would grow it to the memory ceiling: it runs at an explicit margin
    res = build_scheme_family(SchemeParams(eta=0.5, sigma=1.0, cutoff=30),
                              margin=2.5)
    largest = np.max(np.abs(res.target.operators[:, :16, :16]))
    want = abs(1.0 - cmath.exp(0.3j)) * largest
    assert want > 0.1
    assert abs(res.max_deviation - want) < 1e-12


def test_family_origin_labels():
    b = SchemeFamilyBuilder(SchemeParams(eta=0.5, sigma=1.0, cutoff=30))
    assert b.family(mask=StageMask.raw()).origin == "raw-interaction"
    assert b.family().origin == "compensated"


def test_batched_family_matches_per_outcome_operators(monkeypatch):
    # family reads out the pre-squeezed leading columns once and finishes
    # the outcome chunks on the cutoff rows; the reference takes one
    # outcome at a time through every stage on unit columns.  A small stack budget
    # (4 outcomes of 53 nodes times max(n_work 75, rows 30) plus cutoff 30
    # columns, the stage's _chunked) splits the 9-point grid into outcome
    # chunks of 4, 4 and 1.
    monkeypatch.setattr(scheme, "_STACK_ELEMENTS", 4 * 53 * (75 + 30))
    masks = [StageMask(), StageMask.raw(), StageMask(True, False, False),
             StageMask(False, True, True), StageMask(True, True, False)]
    grid = OutcomeGrid.from_range(-2.0, 2.0, 0.5)
    worst = 0.0
    for phi_probe in (0.0, 0.3):  # real and complex probe contraction
        b = SchemeFamilyBuilder(SchemeParams(eta=0.4, sigma=1.5, cutoff=30,
                                             phi_probe=phi_probe))
        assert b.n_work == 75
        for mask in masks:
            fam = b.family(grid, mask)
            for i, x in enumerate(grid.points):
                one = builder_outcomes(b, [x], mask, 30)[0, :30]
                worst = max(worst, float(np.max(np.abs(
                    fam.operators[i] - one))))
    assert worst < 1e-12


def test_working_phase_enters_as_the_frame_rotation(monkeypatch):
    # with phi_probe = phi every stage is covariant with the working
    # quadrature: the builder at phi gives R_phi Omega_0 R_phi^dag, over
    # the masks and outcome chunks of the batched-family test
    monkeypatch.setattr(scheme, "_STACK_ELEMENTS", 4 * 53 * (75 + 30))
    masks = [StageMask(), StageMask.raw(), StageMask(True, False, False),
             StageMask(False, True, True), StageMask(True, True, False)]
    grid = OutcomeGrid.from_range(-2.0, 2.0, 0.5)
    phi = 0.4
    b0 = SchemeFamilyBuilder(SchemeParams(eta=0.4, sigma=1.5, cutoff=30))
    b = SchemeFamilyBuilder(SchemeParams(eta=0.4, sigma=1.5, cutoff=30,
                                         phi=phi, phi_probe=phi))
    rot = np.exp(1j * phi * np.arange(30))
    frame = rot[:, None] * rot.conj()
    worst = 0.0
    for mask in masks:
        fam, fam0 = b.family(grid, mask), b0.family(grid, mask)
        worst = max(worst, float(np.max(np.abs(
            fam.operators - frame * fam0.operators))))
        one, one0 = (builder_outcomes(m, [-1.5, 0.5], mask, 30)[:, :30]
                     for m in (b, b0))
        worst = max(worst, float(np.max(np.abs(one - frame * one0))))
    assert worst < 1e-12


def test_compensated_stages_compose_in_real_arithmetic(monkeypatch):
    # at phi_probe = phi the squeezes, the probe amplitudes, the readout
    # columns, the probe functions and the family's stack before its phase
    # factor are all real: a return to complex products fails here
    b = SchemeFamilyBuilder(SchemeParams(eta=0.4, sigma=0.5, cutoff=30,
                                         phi=0.4))
    pre = b._presqueeze(np.eye(30))
    assert pre.dtype == np.float64
    assert b._unit_readout(True, 30).dtype == np.float64
    assert b._chi([0.3, -1.0], 0.0).dtype == np.float64
    vc = b._readout_columns(pre, b._amps)
    assert vc.dtype == np.float64
    stacks = []
    finish = b._finish

    def recording(*args, **kwargs):
        stacks.append(finish(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(b, "_finish", recording)
    for mask in (StageMask(), StageMask.raw()):
        fam = b.family(mask=mask)
        assert stacks and all(w.dtype == np.float64 for w in stacks)
        stacks.clear()
        assert fam.operators.dtype == np.complex128
    # at phi = 0 a real input column stays real through every stage
    b0 = SchemeFamilyBuilder(SchemeParams(eta=0.4, sigma=0.5, cutoff=30))
    column = np.zeros((b0.n_work, 1))
    column[0] = 1.0
    for mask in (StageMask(), StageMask(True, False, False)):
        assert builder_outcomes(b0, b0.params.grid.points, mask,
                                1).dtype == np.float64


def untruncated_sector_blocks(b):
    # (rows m, mask of the rows with m, p < n_work, sector s, block) of the
    # mixer at n_work + k_max levels per mode, so that no sector the
    # readout reads is truncated: the dense expm reference
    n, k_max = b.n_work, b._levels[-1]
    for m, s, block in _bs_sector_blocks(b.params.eta, n + k_max):
        if s >= n + k_max:
            break
        keep = (m < n) & (s - m < n)
        yield m, keep, s, block


def dense_probe_contraction(b):
    # V[m, p, n] = <m, p|U_mix|n, probe>, scattered from the untruncated
    # sector exponentials: the independent reference for the per-sector
    # readout
    n = b.n_work
    probe = np.zeros(2 * n, dtype=complex)  # the builder's n_work levels
    probe[:n] = squeezed_vacuum(b.params.sigma, n,
                                phase=b.params.phi_probe).amplitudes
    v = np.zeros((n, n, n), dtype=complex)
    for m, keep, s, block in untruncated_sector_blocks(b):
        inputs = m < n
        v[m[keep, None], (s - m[keep])[:, None], m[None, inputs]] = \
            block[np.ix_(keep, inputs)] * probe[s - m[inputs]][None, :]
    return v


@pytest.mark.parametrize("sigma,phi_probe", [
    (0.5, None), (1.0, None), (2.0, None), (0.5, 0.7)])
def test_banded_readout_matches_dense_probe_contraction(sigma, phi_probe):
    # phi_probe = phi = 0 gives a real readout, phi_probe 0.7 a complex one
    b = SchemeFamilyBuilder(SchemeParams(eta=0.3, sigma=sigma,
                                         phi_probe=phi_probe, cutoff=16))
    assert np.iscomplexobj(b._unit_readout(False, 16)) \
        == (phi_probe is not None)
    v = dense_probe_contraction(b)
    for xs in ([0.6], [-1.7, -0.2, 0.0, 0.9, 2.4]):
        chi = quadrature_eigenvector_matrix(
            xs, b.n_work, b.params.phi_probe).conj()
        dense = np.einsum("xp,mpn->xmn", chi, v)
        got = builder_outcomes(b, xs, StageMask.raw(), b.n_work)
        assert np.max(np.abs(got - dense)) < 1e-13


def test_tridiagonal_exponential_columns_match_expm():
    rng = np.random.default_rng(5)
    worst = 0.0
    for d in range(1, 61):
        e = rng.uniform(-2.0, 2.0, d - 1)
        ref = expm(np.diag(e, 1) - np.diag(e, -1))
        cols = np.sort(rng.choice(d, size=max(1, d // 3), replace=False))
        rows = int(rng.integers(1, d + 1))
        for got, want in ((_tridiagonal_expm_columns(e, np.arange(d)), ref),
                          (_tridiagonal_expm_columns(e, cols),
                           ref[:, cols]),
                          (_tridiagonal_expm_columns(e, cols, rows),
                           ref[:rows, cols])):
            assert got.shape == want.shape
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-13


@pytest.mark.parametrize("n,r", [(140, 0.805), (160, -0.916),
                                 (100, -1.524)])
def test_faithful_squeeze_vacuum_column_matches_closed_form(n, r):
    # the eta = 0.2 mixer squeeze of the BCH check, the eta = 0.2
    # back-squeeze, and r = -1.524, where the generator's exponential would
    # need an extended space 21x the kept one; the pump phase enters as the
    # element phases e^{i(m-k) phase}
    exact = squeezed_vacuum(math.exp(2.0 * r), 8 * n, phase=0.4).amplitudes
    got = stage_squeeze(r, n)[:, 0] * np.exp(0.4j * np.arange(n))
    assert np.max(np.abs(got - exact[:n])) <= 1e-14


# the pre-squeeze, the back-squeeze and the BCH check's -ln(eta)/2 at eta
# 0.2, 0.5 and 0.8 (0.5 ln(eta(1-eta)) is the same at 0.2 and 0.8)
_WORKLOAD_SQUEEZES = sorted({round(f(eta), 12) for eta in (0.2, 0.5, 0.8)
                             for f in (presqueeze_param, backsqueeze_param,
                                       lambda e: -0.5 * math.log(e))})


@pytest.mark.parametrize("n,r", [(n, r) for n in (100, 140, 160, 250)
                                 for r in _WORKLOAD_SQUEEZES]
                         + [(100, 1.5), (100, -1.5), (49, 0.805),
                            (101, -0.916), (800, 0.112)])
def test_faithful_squeeze_matches_eigen_route(n, r):
    # the quadrature form against the generator's exponential in an
    # extended space, at every workload size; odd n has a zero node, and
    # at n 800 (pom --cutoff 320) chi_0 underflows at the outer nodes
    want = eigen_route_squeeze(r, n)
    got = stage_squeeze(r, n)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_faithful_squeeze_runs_one_eigenvalue_solve(monkeypatch):
    calls = []
    svd = fock._x0_svd

    def counting(cutoff, vectors=True):
        calls.append((vectors, cutoff))
        return svd(cutoff, vectors)

    monkeypatch.setattr(fock, "_x0_svd", counting)
    for n, r in ((140, 0.805), (100, -1.5), (49, 0.1)):
        calls.clear()
        fock._gauss_rule.cache_clear()  # the solve of a rule not yet kept
        stage_squeeze(r, n)
        assert len(calls) == 1
        assert calls[0][0] is False and calls[0][1] <= n


def probe_sectors(b, n_sectors):
    # (s, rows lo..min(s, n_work - 1), kept levels lo <= k_j <= s, X_s at
    # those rows and levels times amp_j) from _mixer_sectors as the
    # readout runs it: every entry the readout reads
    n, levels = b.n_work, b._levels
    for s, x in scheme._mixer_sectors(b.params.eta, n, levels[-1] + 1,
                                      n_sectors):
        lo = max(0, s - n + 1)
        m = np.arange(lo, min(s, n - 1) + 1)
        j = np.flatnonzero((levels >= lo) & (levels <= s))
        yield s, m, j, x[np.ix_(m, levels[j])] * b._amps[levels[j]]


@pytest.mark.parametrize("eta", [0.2, 0.7])
def test_band_columns_match_sector_blocks(eta):
    # every sector, the truncated ones (s >= n_work) included, holds the
    # exact elements of the untruncated mixer on the rows and levels the
    # readout reads
    b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=0.5, cutoff=12))
    levels, n = b._levels, b.n_work
    assert len(levels) > 1
    amps = squeezed_vacuum(0.5, n).amplitudes.real
    assert np.array_equal(b._amps[levels], amps[levels])
    blocks = {s: (m, keep, block)
              for m, keep, s, block in untruncated_sector_blocks(b)}
    sectors = 0
    for s, rows, j, got in probe_sectors(b, n + levels[-1]):
        m, keep, block = blocks[s]
        assert np.array_equal(m[keep], rows)
        want = block[keep][:, s - levels[j] - m[0]] * amps[levels[j]]
        assert np.max(np.abs(got - want)) < 1e-13
        sectors += 1
    assert sectors == n + levels[-1]
    # a vacuum probe keeps one level: the sectors give U|s, 0>, a binomial
    vac = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=1.0, cutoff=12))
    assert list(vac._levels) == [0]
    for s, m, j, got in probe_sectors(vac, vac.n_work):
        binom = np.sqrt(comb(s, m)) * math.sqrt(eta) ** m \
            * math.sqrt(1.0 - eta) ** (s - m)
        assert np.max(np.abs(got[:, 0] - binom)) < 1e-13


@pytest.mark.parametrize("sigma", [0.2, 5.0])
@pytest.mark.parametrize("eta", [0.02, 0.98])
def test_band_stays_exact_deep_into_the_recurrence(eta, sigma):
    # sectors are built one from the last, up to n_work 400 here; a
    # one-sided recurrence would amplify rounding by up to sqrt(C(n+k, k))
    b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sigma, cutoff=160))
    levels, n = b._levels, b.n_work
    assert n == 400 and len(levels) > 1
    amps = squeezed_vacuum(sigma, n).amplitudes.real[levels]
    theta = math.atan(math.sqrt((1.0 - eta) / eta))
    worst = 0.0
    for s, m, j, got in probe_sectors(b, n):  # untruncated: m <= s < n
        if s % 7:
            continue
        assert np.array_equal(m, np.arange(s + 1))
        assert np.array_equal(j, np.flatnonzero(levels <= s))
        k = np.arange(1, s + 1, dtype=float)
        want = _tridiagonal_expm_columns(theta * np.sqrt(k * (s - k + 1.0)),
                                         s - levels[j]) * amps[j]
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-13


def test_builder_init_runs_no_eigendecomposition(monkeypatch):
    calls = []
    svd = fock._x0_svd

    def counting(cutoff, vectors=True):
        calls.append(cutoff)
        return svd(cutoff, vectors)

    monkeypatch.setattr(fock, "_x0_svd", counting)
    SchemeFamilyBuilder(SchemeParams(eta=0.5, sigma=0.5, cutoff=100), 2.5)
    assert calls == []


# ---------------------------------------------------------------------------
# stage masks: intermediate closed forms and POM invariance


def test_raw_family_closed_form():
    # Omega_raw(x) = D^dag(c x) S^dag(q) K(x - xhat) S(log(1-eta)/2) with
    # q = log(eta(1-eta))/2 and K the width-Delta kernel scaled by eta
    eta, sig, cutoff = 0.4, 1.5, 50
    grid = OutcomeGrid.from_range(-1.5, 1.5, 0.75)
    b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sig, cutoff=cutoff,
                                         grid=grid))
    fam = b.family(mask=StageMask.raw())
    nw = b.n_work
    evals, vecs = np.linalg.eigh(make_quadrature(nw, 0.0))
    norm = (2.0 / (math.pi * eta * sig)) ** 0.25
    s_right = eigen_route_squeeze(0.5 * math.log(1.0 - eta), nw)
    s_mid = eigen_route_squeeze(0.5 * math.log(eta * (1.0 - eta)), nw)
    worst = 0.0
    for i, x in enumerate(grid.points):
        kernel = (vecs * (norm * np.exp(-((x - evals) ** 2) / (eta * sig)))) \
            @ vecs.conj().T
        disp = laguerre_displacement(feedback_coefficient(eta) * x, nw)
        closed = (disp.conj().T @ s_mid.conj().T @ kernel @ s_right)[:cutoff,
                                                                    :cutoff]
        worst = max(worst, float(np.max(np.abs(closed[:16, :16]
                                               - fam[i][:16, :16]))))
    assert worst < 1e-10


def test_pre_only_family_closed_form():
    # with pre-squeezing alone the family is D^dag(c x) S^dag(q) K(x - xhat)
    eta, sig, cutoff = 0.4, 1.5, 50
    grid = OutcomeGrid.from_range(-1.5, 1.5, 0.75)
    b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sig, cutoff=cutoff,
                                         grid=grid))
    fam = b.family(mask=StageMask(True, False, False))
    big = 150
    kernels = vn_target_family(0.5 * math.sqrt(eta * sig), grid, big)
    s_mid = eigen_route_squeeze(0.5 * math.log(eta * (1.0 - eta)), big)
    worst = 0.0
    for i, x in enumerate(grid.points):
        disp = laguerre_displacement(feedback_coefficient(eta) * x, big)
        closed = disp.conj().T @ s_mid.conj().T @ kernels[i]
        worst = max(worst, float(np.max(np.abs(closed[:10, :10]
                                               - fam[i][:10, :10]))))
    assert worst < 1e-10


def masked_pom(b, x, block, mask):
    # the probability operator at one outcome with the masked dressing
    # stages applied at working size before the quadratic product, on the
    # leading block levels: comparing masks measures the invariance
    w = builder_outcomes(b, [x], mask, block)[0]
    return w.conj().T @ w


def test_pom_invariant_under_compensation_masks():
    # feedback and back-squeeze are unitary dressings; applying them
    # explicitly in the working space leaves the probability operators
    # unchanged
    masks = [StageMask(), StageMask(True, False, True),
             StageMask(True, True, False), StageMask(True, False, False)]
    b = SchemeFamilyBuilder(SchemeParams(eta=0.5, sigma=1.0, cutoff=40),
                            margin=4.0)
    worst = 0.0
    for x in (-2.0, 0.0, 2.0):
        ref = masked_pom(b, x, 16, masks[0])
        for m in masks[1:]:
            worst = max(worst, float(np.max(np.abs(
                masked_pom(b, x, 16, m) - ref))))
    assert worst < 1e-10


def test_pom_invariance_defect_shrinks_with_working_margin():
    # at the sharpest preset the dressed product outruns a small working
    # space; the invariance defect must collapse as the margin grows
    p = SchemeParams(eta=0.2, sigma=0.5, cutoff=40)
    devs = {}
    for margin in (2.5, 4.0):
        b = SchemeFamilyBuilder(p, margin=margin)
        ref = masked_pom(b, 3.0, 16, StageMask())
        devs[margin] = float(np.max(np.abs(
            masked_pom(b, 3.0, 16, StageMask(True, False, False)) - ref)))
    assert devs[4.0] < 1e-9
    assert devs[4.0] < devs[2.5] / 50.0


def test_pre_squeeze_off_reproduces_attenuated_kernel_pom():
    # without pre-squeezing the measurement is the Gaussian kernel of
    # variance Delta^2 in (x - sqrt(1-eta) xhat)
    eta, sig, cutoff = 0.4, 1.5, 50
    b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sig, cutoff=cutoff))
    d2 = measurement_width(eta, sig) ** 2
    root = math.sqrt(1.0 - eta)
    evals, vecs = np.linalg.eigh(make_quadrature(b.n_work, 0.0))
    t = vecs[:16, :]
    worst = 0.0
    for x in (-1.0, 0.0, 0.5, 1.5):
        f = (2.0 * math.pi * d2) ** -0.5 \
            * np.exp(-((x - root * evals) ** 2) / (2.0 * d2))
        closed = (t * f) @ t.conj().T
        for mask in (StageMask(False, True, True), StageMask.raw()):
            worst = max(worst, float(np.max(np.abs(
                masked_pom(b, x, 16, mask) - closed))))
    assert worst < 1e-7


def test_degenerate_probe_limit_rates():
    # as eta -> 1 the probability operators approach |phi(x)|^2 I: the
    # elementwise defect falls like sqrt(1-eta), the vacuum-density defect
    # like (1-eta)
    sig = 1.3
    points = OutcomeGrid.from_range(-2, 2, 0.5).points

    def defects(eta):
        b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sig, cutoff=30))
        elem = dens = 0.0
        for x in points:
            pom = masked_pom(b, float(x), 10, StageMask.raw())
            phi2 = math.sqrt(2.0 / (math.pi * sig)) \
                * math.exp(-2.0 * x * x / sig)
            elem = max(elem, float(np.max(np.abs(pom - phi2 * np.eye(10)))))
            dens = max(dens, abs(float(pom[0, 0].real) - phi2))
        return elem, dens

    e_far, d_far = defects(1.0 - 4e-3)
    e_near, d_near = defects(1.0 - 1e-3)
    assert e_near < 2.0 * math.sqrt(1e-3)
    assert 1.6 < e_far / e_near < 2.5   # sqrt rate
    assert 3.4 < d_far / d_near < 4.6   # linear rate


# ---------------------------------------------------------------------------
# width law and phase covariance


def test_fitted_width_law_across_presets():
    for eta, sig in ((0.25, 2.0), (0.7, 0.5)):
        p = SchemeParams(eta=eta, sigma=sig,
                         grid=OutcomeGrid.from_range(-4, 4, 0.05))
        dens = OutcomeDensity(p.grid,
                              composed_density(p, vacuum(60), p.grid.points))
        fitted = math.sqrt(dens.variance() - VACUUM_VAR)
        assert abs(fitted - measurement_width(eta, sig)) < 1e-6


def test_family_phase_covariance():
    phi = 0.7
    grid = OutcomeGrid.from_range(-1.5, 1.5, 0.75)
    fam = SchemeFamilyBuilder(SchemeParams(eta=0.5, sigma=1.5, phi=phi,
                                           cutoff=40, grid=grid)).family()
    fam0 = SchemeFamilyBuilder(SchemeParams(eta=0.5, sigma=1.5, cutoff=40,
                                            grid=grid)).family()
    rot = make_phase_rotation(40, phi)
    worst = max(
        float(np.max(np.abs(fam[i][:16, :16]
                            - (rot @ fam0[i] @ rot.conj().T)[:16, :16])))
        for i in range(len(grid)))
    assert worst < 1e-12


def test_probe_phase_sets_measured_quadrature_frame():
    grid = OutcomeGrid.from_range(-1.5, 1.5, 0.75)
    psi = 0.9
    fam = SchemeFamilyBuilder(
        SchemeParams(eta=0.5, sigma=1.5, phi=0.0, phi_probe=psi, cutoff=40,
                     grid=grid)).family(mask=StageMask.raw())
    fam0 = SchemeFamilyBuilder(
        SchemeParams(eta=0.5, sigma=1.5, cutoff=40,
                     grid=grid)).family(mask=StageMask.raw())
    rot = make_phase_rotation(40, psi)
    worst = max(
        float(np.max(np.abs(fam[i][:16, :16]
                            - (rot @ fam0[i] @ rot.conj().T)[:16, :16])))
        for i in range(len(grid)))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# two-mode factorization of the mixer


def test_bch_factorization_report():
    # the default working size is the size rule's first guess,
    # ceil((14 + 1.4 block_total) / eta), whose guard band already holds
    # less than _BCH_GUARD
    rep = verify_bch_factorization(0.3)
    assert rep.working_cutoff == 94
    assert rep.guard_population <= scheme._BCH_GUARD
    assert rep.factorization_deviation < 1e-8
    assert rep.su2_plus_minus_deviation < 1e-10
    assert rep.su2_z_plus_deviation < 1e-10
    assert rep.su2_z_minus_deviation < 1e-10
    assert rep.generator_form_deviation < 1e-10


@pytest.mark.parametrize("kwargs", [
    dict(cutoff=20),
    dict(working_cutoff=8),
    dict(working_cutoff=10),
    dict(block_total=-1),
    dict(block_total=39),
    dict(block_total=40),
], ids=["cutoff20", "working_cutoff8", "working_cutoff10", "block_total-1",
        "block_total39", "block_total40"])
def test_bch_requires_minimum_cutoff(kwargs):
    with pytest.raises(ParameterError):
        verify_bch_factorization(0.5, **kwargs)


def test_bch_su2_checks_fire_on_a_perturbed_probe_quadrature(monkeypatch):
    modes = scheme._mode_quadratures

    def perturbed(cutoff):
        xs, ys, xp, yp = modes(cutoff)
        return xs, ys, xp, (1.0 + 1e-3) * yp

    monkeypatch.setattr(scheme, "_mode_quadratures", perturbed)
    rep = verify_bch_factorization(0.5, cutoff=40, working_cutoff=48)
    assert rep.su2_plus_minus_deviation > 1e-4
    assert rep.su2_z_plus_deviation > 1e-4
    assert rep.su2_z_minus_deviation > 1e-4
    assert rep.generator_form_deviation > 1e-4


@pytest.mark.parametrize("eta", [0.2, 0.8])
def test_sector_bounded_mixer_matches_dense_beam_splitter(eta):
    n_w, block_total = 20, 6
    pairs = [(m, p) for m in range(n_w) for p in range(n_w)
             if m + p <= block_total]
    basis = np.zeros((n_w, n_w, len(pairs)))
    for k, (m, p) in enumerate(pairs):
        basis[m, p, k] = 1.0
    got = scheme._apply_mixer_sectors(eta, basis, block_total)
    dense = make_beam_splitter(eta, n_w).matrix @ basis.reshape(n_w ** 2, -1)
    assert np.max(np.abs(got.reshape(n_w ** 2, -1) - dense)) < 1e-13


def test_bch_never_forms_a_dense_joint_matrix():
    # one dense cutoff^2 x cutoff^2 complex matrix at cutoff 40 is 41 MB
    tracemalloc.start()
    try:
        verify_bch_factorization(0.5, cutoff=40, working_cutoff=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1600 ** 2 * 16


# block_total 38 = cutoff - 2 is the largest allowed: there the su(2)
# products reach the last level of each mode; its reference costs 7-9 s at
# the larger working sizes, so it runs at the two small ones.  The last four
# are the size rule's at eta 0.5 (40, 56) and 0.8 (25, 35), block_total 4
# and 10 (test_bch_rule_sizes_have_dense_cases)
_BCH_CASES = [(w, b) for w in (48, 49, 140, 141)
              for b in (4, 10, 20, 36)] + [(48, 38), (49, 38)] + [
    (40, 4), (56, 10), (25, 4), (35, 10)]


@functools.lru_cache(maxsize=None)
def _dense_bch_tables(eta, cutoff, working_cutoff):
    """The factorization check as the library ran it before it kept to the
    compared corner: complex x and y eigenbases from quadrature_spectrum at
    phases 0 and pi/2, and every one-mode factor a dense complex product on
    the full (n, n, k) joint stack, mode 1 through a transposed copy, with
    each squeeze computed apart from the other by eigen_route_squeeze.  The
    mixer side exponentiates each sector's generator by
    _tridiagonal_expm_columns (scipy's expm misses these sectors by up to
    5.5e-14 at eta 0.5, against 40-digit mpmath, this route by 3.2e-15);
    the su(2) and generator checks run on sparse cutoff^2 x cutoff^2 joint
    quadratures.  None of this shares code with the library's mixer
    recurrence, its squeeze stage or its Kronecker-term checks.  The basis
    columns go through in chunks, which bounds memory and leaves every
    maximum as it is.  The guard population is read on the Fock stack that
    the last factor takes, in the top ceil(n_w / 10) levels of each mode.

    It runs once per (eta, working_cutoff), at the largest block_total B of
    its cases in _BCH_CASES, and gives each compared quantity as a (B + 1,
    B + 1) table of its largest deviation by the total of the compared row
    and the total of the basis column.  A column's values do not depend on
    the block_total they are run at: the mixer conserves the total, so the
    sectors above a column's own stay zero.  So a case at block_total b
    reads the maximum of the tables' leading (b + 1, b + 1) corner, and of
    the guard table, by the total of the basis column, its leading b + 1."""
    import scipy.sparse as sp

    n_w = working_cutoff
    big = max(b for w, b in _BCH_CASES if w == working_cutoff)
    k = np.arange(cutoff)  # basis pairs and compared rows: big < n_w
    pairs = np.argwhere(k[:, None] + k[None, :] <= big)
    total = pairs.sum(axis=1)
    c = math.sqrt((1.0 - eta) / eta)
    nu, rx = quadrature_spectrum(n_w)
    mu, ry = quadrature_spectrum(n_w, 0.5 * math.pi)
    sq_sys = eigen_route_squeeze(-0.5 * math.log(eta), n_w)
    sq_probe = eigen_route_squeeze(0.5 * math.log(eta), n_w)

    def on_mode(mat, vecs, mode):
        if mode == 1:
            return on_mode(mat, vecs.transpose(1, 0, 2), 0).transpose(1, 0, 2)
        return (mat @ vecs.reshape(len(vecs), -1)).reshape(vecs.shape)

    def bilinear(v, basis_a, basis_b, vals, sign):
        v = on_mode(basis_b.conj().T, on_mode(basis_a.conj().T, v, 0), 1)
        v *= np.exp(sign * 2j * c * np.outer(*vals))[:, :, None]
        return on_mode(basis_b, on_mode(basis_a, v, 0), 1)

    def squeezes(v):
        return on_mode(sq_probe, on_mode(sq_sys, v, 0), 1)

    theta = math.atan(math.sqrt((1.0 - eta) / eta))

    def mixer(v):  # sectors s <= big < n_w, none truncated
        out = np.zeros_like(v)
        for s in range(big + 1):
            m = np.arange(s + 1)
            block = _tridiagonal_expm_columns(
                theta * np.sqrt(m[1:] * (s - m[1:] + 1.0)), m)
            out[m, s - m] = block @ v[m, s - m]
        return out

    tables = np.zeros((5, big + 1, big + 1))
    guard = np.zeros(big + 1)
    band = n_w - math.ceil(n_w / 10)

    def update(table, dev, cols):  # dev[row pair, column of cols]
        np.maximum.at(table, (total[:, None], total[cols][None, :]), dev)

    def low_dev(v, ref):
        return np.abs(v[pairs[:, 0], pairs[:, 1]]
                      - ref[pairs[:, 0], pairs[:, 1]])

    for chunk in np.array_split(np.arange(len(pairs)),
                                -(-len(pairs) // 64)):
        basis = np.zeros((n_w, n_w, len(chunk)), dtype=complex)
        basis[pairs[chunk, 0], pairs[chunk, 1], np.arange(len(chunk))] = 1.0
        v = bilinear(basis, rx, ry, (nu, mu), -1.0)
        update(tables[0], low_dev(v, basis), chunk)
        update(tables[1], low_dev(squeezes(basis), basis), chunk)
        update(tables[2], low_dev(bilinear(basis, ry, rx, (mu, nu), +1.0),
                                  basis), chunk)
        entering = squeezes(v)
        np.maximum.at(guard, total[chunk],
                      np.sum(np.abs(entering[band:]) ** 2, axis=(0, 1))
                      + np.sum(np.abs(entering[:, band:]) ** 2, axis=(0, 1)))
        right = bilinear(entering, ry, rx, (mu, nu), +1.0)
        update(tables[3], low_dev(mixer(basis), right), chunk)

    x = make_quadrature(cutoff, 0.0)
    y = make_quadrature(cutoff, 0.5 * math.pi)
    eye = np.eye(cutoff)
    xs, ys, xp, yp = (sp.kron(a, b, format="csr")
                      for a, b in ((x, eye), (y, eye), (eye, x), (eye, y)))
    j_plus, j_minus = 2j * (ys @ xp), 2j * (xs @ yp)
    j_z = 1j * (xp @ yp - xs @ ys)
    idx = pairs @ np.array([cutoff, 1])

    def block_table(mat):
        table = np.zeros((big + 1, big + 1))
        np.maximum.at(table, (total[:, None], total[None, :]),
                      np.abs(mat[idx][:, idx].toarray()))
        return table

    a = fock.make_annihilation(cutoff)
    ladder_gen = sp.kron(a, a.conj().T) - sp.kron(a.conj().T, a)
    su2 = [block_table(j_plus @ j_minus - j_minus @ j_plus - 2.0 * j_z),
           block_table(j_z @ j_plus - j_plus @ j_z - j_plus),
           block_table(j_z @ j_minus - j_minus @ j_z + j_minus)]
    gen = float(np.max(np.abs((ladder_gen - 2j * (ys @ xp - xs @ yp)).data),
                       initial=0.0))
    return tables, guard, su2, gen


def _dense_bch_reference(eta, cutoff, block_total, working_cutoff):
    """The BchReport of the dense reference (_dense_bch_tables) at
    block_total: every deviation the maximum over the compared rows and
    basis columns of total <= block_total."""
    tables, guard, su2, gen = _dense_bch_tables(eta, cutoff, working_cutoff)

    def corner(table):
        return float(np.max(table[:block_total + 1, :block_total + 1]))

    return BchReport(
        eta=eta, cutoff=cutoff, block_total=block_total,
        working_cutoff=working_cutoff,
        guard_population=float(np.max(guard[:block_total + 1])),
        factorization_deviation=corner(tables[3]),
        su2_plus_minus_deviation=corner(su2[0]),
        su2_z_plus_deviation=corner(su2[1]),
        su2_z_minus_deviation=corner(su2[2]),
        generator_form_deviation=gen,
        factor_identity_deviations=tuple(corner(t) for t in tables[:3]))


@pytest.mark.parametrize("working_cutoff,block_total", _BCH_CASES)
@pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
def test_bch_matches_dense_reference(eta, working_cutoff, block_total):
    got = verify_bch_factorization(eta, 40, block_total, working_cutoff)
    ref = _dense_bch_reference(eta, 40, block_total, working_cutoff)
    for field in dataclasses.fields(BchReport):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(a, float):
            assert abs(a - b) <= 1e-14, field.name
        elif isinstance(a, tuple):
            assert np.max(np.abs(np.subtract(a, b))) <= 1e-14, field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("n_w", [48, 49, 140])
def test_parity_bases_fold_the_bch_factors_per_parity(n_w):
    # the premises of the joint-parity sectors: e_l and o_l are orthonormal
    # bases of the even and the odd levels (o with a zero column at odd
    # n_w) and x e_l = lam_l o_l, to eigenvector rounding (|x| ~ 8 here);
    # and, with the probe squeeze the transpose of the signal one as the
    # library takes it, in the bases [e | o] each folded middle factor has
    # no even<->odd block, a real even block and an odd block -i (signal)
    # or +i (probe) times a real one
    lam, f = scheme._parity_quadrature_basis(n_w)
    h = (n_w + 1) // 2
    assert lam.shape == (h,) and f.shape == (n_w, h)
    assert np.all(lam[:n_w // 2] > 0) and np.all(lam[n_w // 2:] == 0)
    even, odd = np.zeros((n_w, h)), np.zeros((n_w, h))
    even[0::2], odd[1::2] = f[0::2], f[1::2]
    x = make_quadrature(n_w)
    assert np.max(np.abs(even.T @ even - np.eye(h))) < 1e-13
    assert np.max(np.abs(odd.T @ odd - np.diag(lam > 0))) < 1e-13
    assert np.max(np.abs(x @ even - odd * lam)) < 1e-13
    assert np.max(np.abs(x @ odd - even * lam)) < 1e-13
    d = np.diag(np.array([1, 1j, -1, -1j])[np.arange(n_w) % 4])
    basis = np.hstack((even, odd))
    for eta in (0.2, 0.8):
        s_sys = stage_squeeze(-0.5 * math.log(eta), n_w)
        s_probe = s_sys.T
        for mid, odd_phase in ((d.conj() @ s_sys, -1j), (s_probe @ d, 1j)):
            folded = basis.T @ mid @ basis
            assert np.max(np.abs(folded[:h, h:])) <= 1e-14
            assert np.max(np.abs(folded[h:, :h])) <= 1e-14
            assert np.max(np.abs(folded[:h, :h].imag)) <= 1e-14
            assert np.max(np.abs((folded[h:, h:] / odd_phase).imag)) <= 1e-14


def test_bch_factorization_senses_a_perturbed_squeeze(monkeypatch):
    # the squeezes at r (1 + 1e-6), the stage's scale e^{-r} and gain
    # e^{-r/2} each to the power 1 + 1e-6, no longer complete the
    # factorization, which reads 1e-14 to 6e-13 at these sizes when they
    # are exact
    exact = scheme._stage
    monkeypatch.setattr(scheme, "_stage",
                        lambda scale, shift, cols, rows, gain, **kw: exact(
                            scale ** (1.0 + 1e-6), shift, cols, rows,
                            gain ** (1.0 + 1e-6), **kw))
    for eta in (0.2, 0.5, 0.8):
        rep = verify_bch_factorization(eta, 40, working_cutoff=140,
                                       check_su2=False)
        assert rep.factorization_deviation > 1e-7


def test_bch_at_the_cli_size_stays_in_its_memory_budget():
    # the joint-parity chains hold one class, at most (36, 70, 70), at a
    # time and peak at 9.3 MiB at 140 levels; the corner chains, with two
    # (140, 140, 66) complex stacks alive at a time, peaked at 60.5 MiB, and
    # the full-stack chains at 115 MB.  The size rule's first guesses,
    # ceil(28 / eta) at block_total 10, meet the guard band
    for eta, n_w in ((0.2, 140), (0.5, 56), (0.8, 35)):
        tracemalloc.start()
        try:
            rep = verify_bch_factorization(eta, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.working_cutoff == n_w
        assert peak < 12 * 2 ** 20


def test_bch_rule_sizes_have_dense_cases():
    # the rule's sizes at eta 0.5 and 0.8 are among the dense reference's
    for eta in (0.5, 0.8):
        for block_total in (4, 10):
            rep = verify_bch_factorization(eta, 40, block_total,
                                           check_su2=False)
            assert (rep.working_cutoff, block_total) in _BCH_CASES


@pytest.mark.parametrize("eta,block_total", [(0.2, 20), (0.5, 36)])
def test_bch_default_size_grows_with_block_total(eta, block_total):
    # the size once read only cutoff (140 levels here), and (0.2, 20) read
    # 1.45e-5 there with no warning (0.127 at block_total 36); the rule
    # takes 210 and 129 levels
    rep = verify_bch_factorization(eta, 40, block_total, check_su2=False)
    assert rep.working_cutoff == {20: 210, 36: 129}[block_total]
    assert rep.guard_population <= scheme._BCH_GUARD
    assert rep.factorization_deviation <= 1e-12


@pytest.mark.parametrize("block_total", [10, 36])
def test_bch_explicit_short_space_runs_and_shows_in_the_guard(block_total):
    # an explicit working_cutoff below the rule's size (56 and 129) runs as
    # given, and its guard band holds more than the rule allows: 1.0e-8 and
    # 0.21, where the deviation reads 4.9e-11 and 0.26
    rep = verify_bch_factorization(0.5, 40, block_total, working_cutoff=48,
                                   check_su2=False)
    assert rep.working_cutoff == 48
    assert rep.guard_population > 10 * scheme._BCH_GUARD


def test_bch_size_does_not_read_the_cutoff():
    small = verify_bch_factorization(0.5, cutoff=40)
    large = verify_bch_factorization(0.5, cutoff=100)
    assert large.working_cutoff == small.working_cutoff == 56
    assert large.factorization_deviation == small.factorization_deviation
    assert large.guard_population == small.guard_population


def test_bch_size_grows_until_the_guard_band_is_met(monkeypatch):
    # with a stricter guard the rule grows 56 by a sixteenth at a time
    sizes = []
    sides = scheme._factored_sides

    def recording(eta, block_total, n_w):
        sizes.append(n_w)
        return sides(eta, block_total, n_w)

    monkeypatch.setattr(scheme, "_factored_sides", recording)
    monkeypatch.setattr(scheme, "_BCH_GUARD", 1e-16)
    rep = verify_bch_factorization(0.5, 40, check_su2=False)
    assert sizes[:3] == [56, 60, 64]
    assert rep.working_cutoff == sizes[-1]
    assert rep.guard_population <= 1e-16
    assert all(g > 1e-16 for g in (
        sides(0.5, 10, n)[0] for n in sizes[:-1]))


def test_bch_past_its_memory_ceiling_raises_before_allocating(monkeypatch):
    # block_total 36 at eta 0.05 starts at ceil(64.4 / 0.05) = 1288 levels,
    # about 9 GiB of stacks
    monkeypatch.setattr(scheme, "_factored_sides", None)  # never reached
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="working_cutoff 1288"):
            verify_bch_factorization(0.05, 40, 36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_bch_factors_approach_identity_at_full_transmission():
    devs = []
    for eps in (1e-8, 1e-12):
        rep = verify_bch_factorization(1.0 - eps, cutoff=40, block_total=4,
                                       working_cutoff=48, check_su2=False)
        assert rep.su2_plus_minus_deviation is None
        devs.append(max(rep.factor_identity_deviations))
    assert devs[0] < 1e-3
    assert devs[1] < 1e-2 * devs[0]


# ---------------------------------------------------------------------------
# cross-checks against the closed-form Gaussian oracle


def test_oracle_outcome_moments_match_fock_density():
    p = CANONICAL
    grid = OutcomeGrid.from_range(-4, 4, 0.05)
    dens = OutcomeDensity(grid, composed_density(p, vacuum(60), grid.points))
    mean, var = GaussianSchemeOracle(p).outcome_moments()
    assert_allclose((mean, var), (0.0, 0.375), atol=1e-12)
    assert abs(dens.mean() - mean) < 1e-8
    assert abs(dens.variance() - var) < 1e-8


def test_oracle_outcome_mean_for_displaced_input():
    p = CANONICAL
    grid = OutcomeGrid.from_range(-5, 5, 0.05)
    alpha = 0.6
    oracle = GaussianSchemeOracle(
        p, input_state=displacement_transform(alpha).apply(vacuum_gaussian()))
    mean, var = oracle.outcome_moments()
    assert_allclose(mean, alpha, atol=1e-12)
    dens = OutcomeDensity(grid, composed_density(p, coherent(alpha, 60),
                                                 grid.points))
    assert abs(dens.mean() - alpha) < 1e-8
    assert abs(dens.variance() - var) < 1e-8


def test_post_measurement_state_matches_oracle():
    p = CANONICAL
    x0 = 0.5
    _, post = reduce_state(StateVector(vacuum(60)),
                           composed_reductions(p, [x0], np.eye(60), 60)[0])
    dens = quadrature_density(post, OutcomeGrid.from_range(-4, 4, 0.02))
    mean, var = GaussianSchemeOracle(p).post_quadrature_moments(x0)
    # conjugate update: gain v/(v + Delta^2) = 2/3 pulls the mean to x0*2/3
    assert_allclose((mean, var), (1.0 / 3.0, 1.0 / 12.0), atol=1e-12)
    assert abs(dens.mean() - mean) < 1e-7
    assert abs(dens.variance() - var) < 1e-7


def test_builder_density_fast_path_matches_family_born_rule():
    # the exact density against the Born rule on the builder's family
    p = SchemeParams(eta=0.5, sigma=1.0, cutoff=40,
                     grid=OutcomeGrid.from_range(-4, 4, 0.1))
    b = SchemeFamilyBuilder(p)
    fast = composed_density(p, vacuum(40), p.grid.points)
    slow = born_density(StateVector(vacuum(40)), b.family().pom()).values
    assert np.max(np.abs(fast - slow)) < 1e-12
    assert abs(np.trapezoid(fast, p.grid.points) - 1.0) < 1e-8


@pytest.mark.parametrize("mask", [StageMask(), StageMask.raw()],
                         ids=["full", "raw"])
@pytest.mark.parametrize("phi_probe", [None, 0.7])
def test_completeness_gram_sum_matches_outcome_stacks(mask, phi_probe,
                                                     monkeypatch):
    # 601 outcomes on [-3, 3] leave out enough of the continuum that the
    # defect is far from rounding, so agreement checks the contraction; a
    # small budget splits the sum into blocks of 7 of the 90 readout rows,
    # and where the frame squeeze runs as the stage (pre-squeeze on, phi_probe
    # = phi) the outcome stacks into chunks of one outcome (90 nodes times
    # 90 levels plus 16 columns each)
    monkeypatch.setattr(scheme, "_STACK_ELEMENTS", 7 * 90 * 16)
    grid = OutcomeGrid.from_range(-3.0, 3.0, 0.01)
    assert len(grid) == 601
    b = SchemeFamilyBuilder(SchemeParams(eta=0.5, sigma=2.0, cutoff=30,
                                         phi_probe=phi_probe), margin=3.0)
    assert b.n_work == 90
    block = 16
    w = builder_outcomes(b, grid.points,
                         StageMask(mask.pre_squeeze, False, False), block)
    acc = np.einsum("x,xmc,xmd->cd", grid.weights(), w.conj(), w)
    explicit = np.max(np.abs(acc - np.eye(block)))
    assert explicit > 1e-3
    assert abs(b.completeness_defect(grid, block, mask) - explicit) < 1e-13


@pytest.mark.parametrize("eta,sigma,k_max", [
    (0.5, 1.0, 0), (0.2, 2.0, 36), (0.8, 0.5, 68)])
def test_completeness_sums_the_readout_triangle(eta, sigma, k_max):
    # the readout writes no sector m + p >= n_work + k_max, so the triangle
    # that completeness_defect sums holds every nonzero product of the full
    # Gram contraction
    b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sigma, cutoff=40),
                            margin=4.0)
    n = b.n_work
    assert len(b._frames[True][1]) - 1 == k_max
    vc = b._unit_readout(True, 16)
    p, m = np.indices((n, n))  # vc[p, m]
    assert np.all(vc[p + m >= n + k_max] == 0.0)
    grid = OutcomeGrid.from_range(-8.0, 8.0, 0.02)
    assert abs(b.completeness_defect(grid, 16)
               - gram_completeness_defect(b, grid, 16)) <= 1e-15


def test_cli_size_passes_the_strict_checks_at_the_hardest_preset():
    # the preset whose pom-identity is largest at the CLI size: 8.2e-13 at
    # margin 4 (160 levels), 1.9e-13 at the size rule's 168, within the
    # CLI's pom_tol 1e-10; (0.8, 2) read 3.5e-14 in the lab frame and
    # 1.3e-15 in the balanced-squeeze frame
    res = build_scheme_family(SchemeParams(eta=0.8, sigma=0.5, cutoff=40))
    assert passes_verify(res)
    assert res.pom_deviation <= 1e-12


def test_scheme_family_at_the_cli_size_stays_in_its_memory_budget():
    # no (801, n_work, block) outcome stack forms for the completeness sum
    p = SchemeParams(eta=0.2, sigma=2.0, cutoff=40)
    tracemalloc.start()
    try:
        build_scheme_family(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


@pytest.mark.parametrize("sigma,margin,budget_mb", [
    (0.5, 4.0, 16), (0.05, 8.0, 64)])
def test_scheme_family_forms_no_mixer_probe_band(sigma, margin, budget_mb):
    # a mixer-probe band of shape (n_work + k_max, n_work, K) took the
    # build to 31.7 MB at sigma 0.5, margin 4 and to 376 MB at sigma 0.05,
    # margin 8; each sector now goes into the readout as it is made
    p = SchemeParams(eta=0.2, sigma=sigma, cutoff=40)
    tracemalloc.start()
    try:
        build_scheme_family(p, margin=margin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget_mb * 2 ** 20


def test_scheme_family_runs_the_sector_recurrence_once(monkeypatch):
    # family and completeness_defect share one readout of the unit columns
    calls = []
    sectors = scheme._mixer_sectors

    def counting(*args):
        calls.append(args)
        return sectors(*args)

    monkeypatch.setattr(scheme, "_mixer_sectors", counting)
    readouts = []
    readout = SchemeFamilyBuilder._readout_columns

    def counting_readout(self, cols, amps):
        readouts.append(cols.shape)
        return readout(self, cols, amps)

    monkeypatch.setattr(SchemeFamilyBuilder, "_readout_columns",
                        counting_readout)
    res = build_scheme_family(SchemeParams(eta=0.5, sigma=0.5, cutoff=40))
    assert len(calls) == 1
    assert readouts == [(res.n_work, 40)]
    assert passes_verify(res)


# ---------------------------------------------------------------------------
# the working-size rule


PRESETS = [(eta, sigma) for eta in (0.2, 0.5, 0.8)
           for sigma in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("eta,sigma", PRESETS)
def test_size_rule_certifies_each_preset_in_one_pass(eta, sigma,
                                                     monkeypatch):
    # margin 4 took 160 levels at every preset; the rule's first guess
    # holds at 44 to 168, so the family runs one readout
    calls = []
    sectors = scheme._mixer_sectors

    def counting(*args):
        calls.append(args)
        return sectors(*args)

    monkeypatch.setattr(scheme, "_mixer_sectors", counting)
    p = SchemeParams(eta=eta, sigma=sigma, cutoff=40)
    res = build_scheme_family(p)
    assert len(calls) == 1
    assert res.n_work == scheme._first_size(p, StageMask(), 16) <= 168
    assert res.convergence_defect <= 1e-12
    assert passes_verify(res)


def test_size_rule_reads_the_block_not_the_cutoff():
    # the composition at (0.8, 0.5) needs 163 levels at cutoff 20, 40 and 80
    guess = [scheme._first_size(SchemeParams(eta=0.8, sigma=0.5,
                                             cutoff=cutoff), StageMask(), 16)
             for cutoff in (20, 40, 80)]
    assert guess == [168, 168, 168]
    # the cutoff is a floor: at sigma 2 the eta-0.5 frame has no squeeze
    p = SchemeParams(eta=0.5, sigma=2.0, cutoff=80)
    assert scheme._first_size(p, StageMask(), 16) == 80


def test_size_rule_grows_until_the_family_converges(monkeypatch):
    # from a first guess of 48 levels at (0.8, 1), where the composition
    # needs 148, the size grows by a sixteenth until it certifies
    sizes = []
    init = SchemeFamilyBuilder.__init__

    def recording(self, params, margin=2.5, n_work=None):
        sizes.append(n_work)
        init(self, params, margin, n_work)

    monkeypatch.setattr(scheme, "_first_size", lambda p, mask, block: 48)
    monkeypatch.setattr(SchemeFamilyBuilder, "__init__", recording)
    res = build_scheme_family(SchemeParams(eta=0.8, sigma=1.0, cutoff=40))
    assert sizes[:4] == [48, 51, 55, 59]
    assert all(b == a + -(-a // 16) for a, b in zip(sizes, sizes[1:]))
    assert res.n_work == sizes[-1] >= 148
    assert res.convergence_defect <= 1e-12
    assert passes_verify(res)


def test_explicit_margin_runs_as_given_and_reports_its_defect():
    # margin 4 is short at (0.95, 1): the family's gap to the composition
    # is the failing identity itself (the size rule takes 607 levels there,
    # see test_cli)
    res = build_scheme_family(SchemeParams(eta=0.95, sigma=1.0, cutoff=40),
                              margin=4.0)
    assert res.n_work == 160
    assert res.convergence_defect > 0.1
    assert res.max_deviation > 0.1


def test_size_past_the_ceiling_raises_before_allocating(monkeypatch):
    # eta 0.99 squeezes the input by e^{2 r} = 100: the first guess of 2975
    # levels wants a 2.8 GiB readout at cutoff 40
    monkeypatch.setattr(scheme, "composed_reductions", None)  # never reached
    monkeypatch.setattr(scheme, "SchemeFamilyBuilder", None)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="n_work 2975"):
            build_scheme_family(SchemeParams(eta=0.99, sigma=1.0, cutoff=40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("eta,sigma", [(0.5, 1e-310), (0.5, 1e300),
                                       (1.0 - 1e-16, 1.0)])
def test_size_rule_at_extreme_parameters_raises_at_the_ceiling(eta, sigma):
    # the guess stays finite, and its estimate overflows to inf, not to an
    # OverflowError
    with pytest.raises(ParameterError, match="ceiling"):
        build_scheme_family(SchemeParams(eta=eta, sigma=sigma, cutoff=40))


def test_size_rule_seeded_coverage():
    # eta from [0.05, 0.95] and sigma log-uniform on [0.05, 20] at cutoff 40,
    # plus a working phase phi != 0: each case certifies or raises at the
    # memory ceiling
    rng = np.random.default_rng(30)
    cases = [(rng.uniform(0.05, 0.95),
              math.exp(rng.uniform(math.log(0.05), math.log(20.0))), 0.0)
             for _ in range(12)] + [(0.8, 0.5, 1.3)]
    for eta, sigma, phi in cases:
        p = SchemeParams(eta=eta, sigma=sigma, phi=phi, cutoff=40)
        try:
            res = build_scheme_family(p)
        except ParameterError as exc:
            assert "ceiling" in str(exc)
            continue
        assert res.convergence_defect <= 1e-12
        assert res.n_work >= scheme._first_size(p, StageMask(), 16)
        assert res.max_deviation <= _SCHEMA["identity_tol"][1]


def test_size_rule_at_an_offset_probe_against_a_wide_builder():
    # at phi_probe != phi the chain truncates at the length of its columns,
    # so the reference grows until it converges itself; the certified
    # family then matches the builder at margin 16 (192 levels)
    p = SchemeParams(eta=0.8, sigma=2.0, phi=0.4, phi_probe=1.2, cutoff=12)
    res = build_scheme_family(p)
    assert res.convergence_defect <= 1e-12
    wide = SchemeFamilyBuilder(p, margin=16.0).family()
    assert np.max(np.abs(res.family.operators[:, :, :12]
                         - wide.operators[:, :, :12])) <= 1e-12


def test_working_level_completeness_across_presets():
    # the dilation-level probability operators resolve the identity for
    # every preset, limited only by the working-space headroom left for the
    # pre-squeezed block (not by the outcome grid)
    grid = OutcomeGrid.from_range(-8, 8, 0.05)
    worst = 0.0
    for eta in (0.2, 0.5, 0.8):
        for sig in (0.5, 1.0, 2.0):
            b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=sig,
                                                 cutoff=40))
            worst = max(worst, b.completeness_defect(grid, 16))
    assert worst < 1e-3
    # the strongest pre-squeeze (eta=0.8) dominates where the probe is
    # squeezed (sigma 0.5; at sigma 2 the balanced-squeeze frame takes the
    # probe to the vacuum and the defect to 6.9e-11); more headroom must
    # collapse its defect while a wider grid must not change it
    b = SchemeFamilyBuilder(SchemeParams(eta=0.8, sigma=0.5, cutoff=40))
    tight = b.completeness_defect(grid, 16)
    wide = b.completeness_defect(OutcomeGrid.from_range(-12, 12, 0.05), 16)
    assert abs(wide - tight) < 0.05 * tight
    roomy = SchemeFamilyBuilder(SchemeParams(eta=0.8, sigma=0.5, cutoff=40),
                                margin=4.0).completeness_defect(grid, 16)
    assert roomy < 1e-9
    assert roomy < 1e-2 * tight


# ---------------------------------------------------------------------------
# the balanced-squeeze frame


def test_frame_squeeze_rule():
    def tau(eta, sigma, pre_on=True, phi_probe=None):
        return scheme._frame_squeeze(
            SchemeParams(eta=eta, sigma=sigma, phi=0.2, phi_probe=phi_probe),
            pre_on)

    for eta in (0.2, 0.5, 0.8):
        assert tau(eta, 0.5) == tau(eta, 1.0) == 0.0
        assert tau(eta, 2.0, pre_on=False) == 0.0
        assert tau(eta, 2.0, phi_probe=0.5) == 0.0
    assert tau(0.5, 2.0) == tau(0.8, 2.0) == 0.5 * math.log(2.0)
    assert tau(0.2, 2.0) == 2.0 * presqueeze_param(0.2)  # the clip
    # the probe falls from 69 levels to the vacuum, or to 37 at the clip;
    # the input squeeze keeps its size or vanishes
    for eta, levels in ((0.2, 37), (0.5, 1), (0.8, 1)):
        b = SchemeFamilyBuilder(SchemeParams(eta=eta, sigma=2.0, cutoff=40),
                                margin=4.0)
        assert len(b._amps) == 69 and len(b._frames[True][1]) == levels
        assert b._frames[False][0] == 0.0 and b._frames[False][1] is b._amps
        r = presqueeze_param(eta) - b._frames[True][0]
        assert abs(r) <= presqueeze_param(eta)


@pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
def test_balanced_frame_family_is_exact_on_the_full_matrix(eta):
    # at margin 4 the lab-frame probe of 69 levels left (0.8, 2) 6.6e-4
    # off on the full cutoff matrix
    p = SchemeParams(eta=eta, sigma=2.0, cutoff=40)
    fam = SchemeFamilyBuilder(p, margin=4.0).family()
    exact = composed_reductions(p, p.grid.points, np.eye(40), 40)
    assert np.max(np.abs(fam.operators - exact)) <= 1e-13


def test_balanced_frame_matches_the_lab_frame(monkeypatch):
    # the frame changes how the stages are composed, not the operators:
    # with the rule patched to 0 the builder composes in the lab frame
    p = SchemeParams(eta=0.5, sigma=2.0, cutoff=40)
    masks = [StageMask(True, f, b) for f in (False, True)
             for b in (False, True)]
    framed = SchemeFamilyBuilder(p, margin=6.0)
    monkeypatch.setattr(scheme, "_frame_squeeze", lambda params, pre_on: 0.0)
    lab = SchemeFamilyBuilder(p, margin=6.0)
    assert framed._frames[True][0] > 0.0 and lab._frames[True][0] == 0.0
    for mask in masks:
        gap = framed.family(mask=mask).operators[:, :16, :16] \
            - lab.family(mask=mask).operators[:, :16, :16]
        assert np.max(np.abs(gap)) <= 1e-13


def test_balanced_frame_completeness_at_the_default_margin():
    # the lab-frame composition reads 5.88e-4 here, limited by the headroom
    # left for the probe's levels
    b = SchemeFamilyBuilder(SchemeParams(eta=0.8, sigma=2.0, cutoff=40))
    grid = OutcomeGrid.from_range(-8, 8, 0.05)
    assert b.completeness_defect(grid, 16) <= 1e-9


# ---------------------------------------------------------------------------
# the exact composition on the Gauss rule


ALL_MASKS = [StageMask(*flags) for flags in itertools.product((False, True),
                                                              repeat=3)]


def test_composition_matches_the_builder_over_presets_and_masks():
    # margin 16 leaves the builder converged at every preset and mask
    # (margin 10 misses by up to 1.7e-10 at eta 0.8); the two share only
    # the Hermite functions and the Gauss rule
    worst = 0.0
    for eta in (0.2, 0.5, 0.8):
        for sigma in (0.5, 1.0, 2.0):
            p = SchemeParams(eta=eta, sigma=sigma, phi=0.4, cutoff=12)
            b = SchemeFamilyBuilder(p, margin=16.0)
            for mask in ALL_MASKS:
                built = builder_outcomes(b, p.grid.points, mask, 12)[:, :12]
                exact = composed_reductions(p, p.grid.points, np.eye(12), 12,
                                            mask)
                worst = max(worst, float(np.max(np.abs(built - exact))))
    assert worst < 1e-13


@pytest.mark.parametrize("cutoff", [40, 400])
def test_composition_meets_the_target_at_the_sharp_preset(cutoff):
    # Delta = 0.05: the composition reads the stage parameters, the target
    # Delta alone, so a fault in a stage parameter shows as a gap
    p = SchemeParams(eta=0.2, sigma=0.05, cutoff=cutoff)
    target = vn_target_family(p.delta, p.grid, cutoff).operators
    exact = composed_reductions(p, p.grid.points, np.eye(cutoff), cutoff)
    assert np.max(np.abs(exact - target)) < 1e-14


def test_composed_density_is_the_norm_of_the_reductions():
    # a displaced input at phi 0.7, with and without the pre-squeeze: the
    # density takes one node per level up to the last nonzero amplitude,
    # so trailing zeros change nothing, and the reductions on 120 rows keep
    # the whole norm
    p = SchemeParams(eta=0.4, sigma=1.5, phi=0.7, cutoff=30)
    psi = np.exp(0.3j * np.arange(30)) * coherent(0.8, 30)
    xs = np.linspace(-4.0, 4.0, 17)
    for pre in (True, False):
        dens = composed_density(p, psi, xs, pre)
        padded = composed_density(p, np.concatenate([psi, np.zeros(50)]), xs,
                                  pre)
        assert np.array_equal(dens, padded)
        mask = StageMask(pre, False, False)
        vecs = composed_reductions(p, xs, psi[:, None], 120, mask)[:, :, 0]
        assert np.max(np.abs(np.linalg.norm(vecs, axis=1) ** 2 - dens)) \
            < 1e-14
    # the vacuum: one node, the Gaussian-oracle density
    mean, var = GaussianSchemeOracle(p).outcome_moments()
    assert np.max(np.abs(composed_density(p, [1.0], xs)
                         - np.exp(-0.5 * (xs - mean) ** 2 / var)
                         / math.sqrt(2.0 * math.pi * var))) < 1e-15


def test_composed_density_chunks_its_outcomes(monkeypatch):
    # a coherent input with alpha 2 on 40 levels takes 40 nodes and 40
    # levels plus its column per node: a budget of 100 outcomes of 40 x 41
    # elements splits 240 outcomes into chunks of 100, 100 and 40, and each
    # outcome's density stays what one chunk gives
    p = SchemeParams(eta=0.5, sigma=1.0, cutoff=40)
    psi = coherent(2.0, 40)
    xs = np.linspace(-6.0, 6.0, 240)
    whole = composed_density(p, psi, xs)
    sizes = []
    hermite = fock._hermite_functions
    monkeypatch.setattr(fock, "_hermite_functions",
                        lambda pts, n: sizes.append(len(pts)) or hermite(pts,
                                                                          n))
    monkeypatch.setattr(scheme, "_STACK_ELEMENTS", 100 * 40 * 41)
    chunked = composed_density(p, psi, xs)
    assert [s for s in sizes if s > 40] == [100 * 40, 100 * 40, 40 * 40]
    assert np.max(np.abs(chunked - whole)) <= 1e-15


@pytest.mark.parametrize("eta,sigma", [(0.2, 0.5), (0.5, 1.0), (0.8, 2.0)])
def test_composed_reductions_take_enough_nodes_for_more_rows(eta, sigma):
    # the finite-lo shape, 100 rows of 40-level columns: (100 + 40 + 1) // 2
    # = 70 nodes integrate every element exactly, as 300 nodes do
    p = SchemeParams(eta=eta, sigma=sigma, cutoff=40)
    xs = p.grid.points
    got = composed_reductions(p, xs, np.eye(40), 100)
    a, b, gain, probe = scheme._stage_coefficients(p, xs, StageMask())
    y, u, f = scheme._rule(a, b, 300, gain, probe)
    chi_u = fock._hermite_functions(u.ravel(), 40).reshape(len(xs), 300, 40)
    chi = fock._hermite_functions(y.ravel(), 100).reshape(len(xs), 300, 100)
    want = chi.transpose(0, 2, 1) @ (f[:, :, None] * chi_u)
    assert np.max(np.abs(got - want)) < 2e-15


def test_composed_density_rejects_a_mixed_input():
    for phi_probe in (None, 0.5):
        with pytest.raises(ParameterError):  # a density matrix is no pure state
            composed_density(SchemeParams(eta=0.5, sigma=1.0, phi=0.2,
                                          phi_probe=phi_probe, cutoff=10),
                             np.eye(10) / 10.0, [0.0])


# (phi, delta = phi_probe - phi) of the offset-probe chain
OFFSETS = [(0.0, 0.3), (0.4, 1.2)]


@pytest.mark.parametrize("phi,delta", OFFSETS)
def test_offset_composition_matches_the_builder(phi, delta):
    # the chain R(delta) W_0 R(-delta) around the real readout against the
    # builder's complex probe, both at working size 16 cutoff, where the
    # two agree within 1.8e-15
    worst = 0.0
    for eta in (0.2, 0.5, 0.8):
        for sigma in (0.5, 1.0, 2.0):
            p = SchemeParams(eta=eta, sigma=sigma, phi=phi,
                             phi_probe=phi + delta, cutoff=12)
            b = SchemeFamilyBuilder(p, margin=16.0)
            for mask in ALL_MASKS:
                built = builder_outcomes(b, p.grid.points, mask, 12)[:, :12]
                chain = composed_reductions(p, p.grid.points,
                                            np.eye(b.n_work)[:, :12], 12, mask)
                worst = max(worst, float(np.max(np.abs(built - chain))))
    assert worst < 1e-13


@pytest.mark.parametrize("phi,delta", OFFSETS)
def test_offset_density_matches_the_builder_born_rule(phi, delta):
    # ||Omega(x) psi||^2 on the builder's n_work rows against the power-2 rule on
    # the chain's pre-squeezed column, for a displaced input
    psi = np.exp(0.3j * np.arange(20)) * coherent(0.8, 20)
    for eta, sigma in ((0.2, 0.5), (0.5, 1.0), (0.8, 2.0)):
        p = SchemeParams(eta=eta, sigma=sigma, phi=phi, phi_probe=phi + delta,
                         cutoff=20, grid=OutcomeGrid.from_range(-4, 4, 0.25))
        b = SchemeFamilyBuilder(p, margin=16.0)
        column = np.concatenate([psi, np.zeros(b.n_work - 20)])
        for pre in (True, False):
            w = builder_outcomes(b, p.grid.points, StageMask(pre, False, False),
                                 20)
            born = np.linalg.norm(w @ psi, axis=1) ** 2
            dens = composed_density(p, column, p.grid.points, pre)
            assert np.max(np.abs(dens - born)) < 1e-13
