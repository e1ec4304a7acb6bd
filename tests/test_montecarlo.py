"""Stochastic-run tests: sampler exactness, deterministic seeding, feedback
modes, and repeatability statistics against the Gaussian oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadmeas.errors import (
    InfeasibleFeedbackError,
    ParameterError,
    ZeroProbabilityError,
)
from quadmeas.fock import (
    DensityOperator,
    StateVector,
    coherent_state,
    fidelity_to_pure,
    make_quadrature,
    trace_distance,
    vacuum_state,
)
from quadmeas.gaussian import (
    GaussianState,
    displacement_transform,
    gap_variance_ideal_second,
    quadrature_statistics,
    squeeze_symplectic,
)
from quadmeas.kernel import (
    OutcomeDensity,
    OutcomeGrid,
    quadrature_density,
)
from quadmeas import montecarlo, scheme
from quadmeas.montecarlo import (
    RepeatabilityStats,
    RngSeed,
    TrialBatch,
    TrialEngine,
    TrialRecord,
    finite_lo_displacement,
    ks_against_density,
    ks_critical_value,
    _cdf_at,
    _inverse_cdf,
    _nearest_index,
    repeatability_experiment,
    sample_outcomes,
    summarize_repeatability,
)
from quadmeas.scheme import (
    FeedbackSpec,
    GaussianSchemeOracle,
    SchemeParams,
    StageMask,
    backsqueeze_param,
    composed_reductions,
    feedback_displacement,
)

from dense_reference import (eigen_route_squeeze, inverse_cdf_reference,
                             laguerre_displacement)

CANONICAL = SchemeParams(eta=0.5, sigma=1.0, cutoff=30)


@pytest.fixture(scope="module")
def canonical_engine():
    return TrialEngine(CANONICAL)


# ---------------------------------------------------------------------------
# seeding and determinism


def test_same_seed_reproduces_bit_identical_samples(canonical_engine):
    a = sample_outcomes(canonical_engine.density, 64, RngSeed(7, "s"))
    b = sample_outcomes(canonical_engine.density, 64, RngSeed(7, "s"))
    assert np.array_equal(a, b)


def test_distinct_streams_differ(canonical_engine):
    a = sample_outcomes(canonical_engine.density, 64, RngSeed(7, "s"))
    c = sample_outcomes(canonical_engine.density, 64, RngSeed(7, "t"))
    d = sample_outcomes(canonical_engine.density, 64, RngSeed(8, "s"))
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_seed_child_streams_and_metadata():
    s = RngSeed(123, "runs")
    assert s.child("trial-0").stream == "runs/trial-0"
    assert s.child("trial-0").seed == 123
    # the backing generator is part of the reproducibility contract
    assert RngSeed.algorithm == "philox4x64"


def test_seed_validation():
    with pytest.raises(ParameterError):
        RngSeed(-1)
    with pytest.raises(ParameterError):
        RngSeed(2 ** 64)
    with pytest.raises(ParameterError):
        RngSeed(True)
    with pytest.raises(ParameterError):
        RngSeed(1.5)


def test_trial_sequence_bit_identical():
    e1 = TrialEngine(CANONICAL)
    e2 = TrialEngine(CANONICAL)
    r1, r2 = RngSeed(99).generator(), RngSeed(99).generator()
    recs1 = [e1.trial(r1, want_second=True) for _ in range(50)]
    recs2 = [e2.trial(r2, want_second=True) for _ in range(50)]
    assert recs1 == recs2


_BATCH_ENGINES = {
    "canonical": lambda: TrialEngine(CANONICAL),
    # second draws grouped over many entries, from sharp conditionals and
    # from finite-lo post states
    "sharp": lambda: TrialEngine(SchemeParams(eta=0.2, sigma=0.5,
                                              cutoff=30)),
    "finite-lo": lambda: TrialEngine(CANONICAL, FeedbackSpec.finite_lo(50.0)),
}


@pytest.mark.parametrize("want_second,poisoned,identity_control,engine", [
    (False, False, False, "canonical"),
    (True, False, False, "canonical"),
    (False, True, False, "canonical"),
    (True, True, False, "canonical"),
    (True, False, True, "canonical"),
    (True, False, False, "sharp"),
    (True, True, False, "sharp"),
    (True, False, False, "finite-lo"),
    (True, True, False, "finite-lo"),
], ids=["first", "second", "first-resampled", "second-resampled",
        "identity-control", "sharp-second", "sharp-second-resampled",
        "finite-lo-second", "finite-lo-second-resampled"])
def test_batched_trials_follow_the_sequential_stream(want_second, poisoned,
                                                     identity_control,
                                                     engine):
    eng = _BATCH_ENGINES[engine]()
    if poisoned:
        # reject the two most probable outcomes, so runs resample mid-batch
        for index in np.argsort(eng.density.values)[-2:]:
            eng._cache[int(index)] = None
    r1, r2 = RngSeed(21).generator(), RngSeed(21).generator()
    batch = eng.trials(r1, 300, want_second, identity_control)
    one_by_one = [eng.trial(r2, want_second, identity_control)
                  for _ in range(300)]
    assert isinstance(batch, TrialBatch) and len(batch.outcome) == 300
    for name in ("outcome", "post_mean", "post_variance", "resamples"):
        assert np.array_equal(getattr(batch, name),
                              [getattr(r, name) for r in one_by_one])
    if want_second:
        assert np.array_equal(batch.second_outcome,
                              [r.second_outcome for r in one_by_one])
    else:
        assert batch.second_outcome is None
        assert all(r.second_outcome is None for r in one_by_one)
    assert {r.feedback_mode for r in one_by_one} == {batch.feedback_mode}
    assert [batch.record(i) for i in range(300)] == one_by_one
    assert r1.random() == r2.random()
    if poisoned:
        assert batch.resamples.sum() >= 2
    if engine != "canonical":
        assert len(np.unique(batch.outcome)) >= 10


_PHI_ENGINES = {
    "phi-0.3": lambda: TrialEngine(SchemeParams(eta=0.5, sigma=1.0, phi=0.3,
                                                cutoff=30)),
    "finite-lo-phi-0.3": lambda: TrialEngine(
        SchemeParams(eta=0.5, sigma=1.0, phi=0.3, cutoff=30),
        FeedbackSpec.finite_lo(50.0)),
}


@pytest.mark.parametrize("poisoned,identity_control,engine", [
    (False, False, "canonical"), (True, False, "canonical"),
    (False, True, "canonical"), (False, False, "sharp"),
    (True, False, "sharp"), (False, False, "finite-lo"),
    (True, False, "finite-lo"), (False, False, "phi-0.3"),
    (True, False, "finite-lo-phi-0.3"), (False, True, "finite-lo-phi-0.3"),
])
def test_second_draws_match_the_per_entry_inverse_cdf(poisoned,
                                                      identity_control,
                                                      engine, monkeypatch):
    # the one pass over stacked CDF rows, and the first draws through its
    # one-row case, against the frozen single-density inverse CDF on the
    # same uniforms, bit for bit
    calls, firsts = [], []

    class Compared(montecarlo._InverseCdf):
        def __init__(self, *densities):
            super().__init__(*densities)
            self.densities = densities

        def __call__(self, u, rows=None):
            drawn = super().__call__(u, rows)
            if rows is None:
                firsts.append(np.array_equal(
                    drawn, inverse_cdf_reference(self.densities[0], u)))
                return drawn
            per_entry = np.empty(len(u))
            for w, density in enumerate(self.densities):
                runs = rows == w
                per_entry[runs] = inverse_cdf_reference(density, u[runs])
            calls.append((len(self.densities),
                          np.array_equal(drawn, per_entry)))
            return drawn

    monkeypatch.setattr(montecarlo, "_InverseCdf", Compared)
    eng = {**_BATCH_ENGINES, **_PHI_ENGINES}[engine]()
    if poisoned:
        for index in np.argsort(eng.density.values)[-2:]:
            eng._cache[int(index)] = None
    batch = eng.trials(RngSeed(21).generator(), 2000, True, identity_control)
    eng.trial(RngSeed(22).generator(), True, identity_control)
    (entries, equal), (_, single_equal) = calls
    assert equal and single_equal
    assert firsts and all(firsts)
    assert entries == (1 if identity_control
                       else len(np.unique(batch.outcome)))
    if not identity_control:
        assert entries >= 10
    if poisoned:
        assert batch.resamples.sum() >= 2


@pytest.mark.parametrize("off,raises", [(1e-7, False), (1e-5, True)])
def test_second_draws_need_normalized_entry_densities(off, raises):
    # each entry's density is checked as _InverseCdf checks it: a 1e-6
    # normalization defect is the limit
    eng = TrialEngine(CANONICAL)
    eng.trials(RngSeed(8).generator(), 500, want_second=True)
    for entry in eng._cache.values():
        if entry is not None:
            entry.density.values[...] *= 1.0 + off
    if raises:
        with pytest.raises(ParameterError, match="normalization is off"):
            eng.trials(RngSeed(8).generator(), 500, want_second=True)
    else:
        eng.trials(RngSeed(8).generator(), 500, want_second=True)


def _reference_entry(eng, index):
    """The per-outcome path that the batched entries replace: the reduction
    operator at x on the engine's rows, from composed_reductions on unit
    columns (or the builder's _compose at phi_probe != phi), applied to psi
    and normalized, then one state at a time its oscillator channel,
    moments and second-outcome density.  None for an outcome below the
    probability floor.  The finite-lo back-squeeze is the eigen route's,
    on the engine's rows."""
    x = float(eng.grid.points[index])
    psi, c, params = eng._psi, len(eng._psi), eng.params
    finite_lo = eng.feedback.mode == "finite-lo"
    mask = StageMask(eng.mask.pre_squeeze, False, False) if finite_lo \
        else eng.mask
    if eng._builder is None:
        om = composed_reductions(params, [x], np.eye(c), eng._rows, mask)[0]
    else:
        om = eng._builder._compose([x], mask, np.eye(eng._builder.n_work)[
            :, :c])[0, :eng._rows]
    vec = om @ psi
    p = np.linalg.norm(vec) ** 2
    if p < 1e-14:
        return None
    post = vec / math.sqrt(p)
    xq = make_quadrature(c, params.phi)
    if finite_lo:
        amp = feedback_displacement(x, params.eta, params.phi) \
            if eng.mask.feedback else 0.0
        rho = finite_lo_displacement(post, amp, eng.feedback.beta).matrix
        if eng.mask.back_squeeze:
            back = eigen_route_squeeze(backsqueeze_param(
                params.eta, eng.mask.pre_squeeze), len(rho), params.phi)
            rho = back @ rho @ back.conj().T
        rho = rho[:c, :c] / np.trace(rho[:c, :c]).real
        post = rho
        mean = np.trace(xq @ rho).real
        var = np.trace(xq @ xq @ rho).real - mean ** 2
        dens = quadrature_density(DensityOperator(rho), eng.second_grid,
                                  params.phi)
    else:
        mean = np.vdot(post, xq @ post).real
        var = np.linalg.norm(xq @ post) ** 2 - mean ** 2
        dens = quadrature_density(StateVector(post), eng.second_grid,
                                  params.phi)
    return post, mean, var, dens.values / dens.normalization()


def _assert_entry_matches(entry, ref):
    post, mean, var, dens = ref
    got = entry.post.matrix if isinstance(entry.post, DensityOperator) \
        else entry.post
    assert np.max(np.abs(got - post)) < 1e-13
    assert abs(entry.mean - mean) < 1e-13
    assert abs(entry.variance - var) < 1e-13
    assert np.max(np.abs(entry.density.values - dens)) < 1e-13


WIDE = OutcomeGrid.from_range(-4.25, 4.25, 0.25)


@pytest.mark.parametrize("make", [
    lambda: TrialEngine(CANONICAL),
    lambda: TrialEngine(CANONICAL, feedback=FeedbackSpec.finite_lo(50.0)),
    lambda: TrialEngine(
        CANONICAL, feedback=FeedbackSpec.finite_lo(50.0),
        mask=StageMask(True, True, False)),
    lambda: TrialEngine(CANONICAL, mask=StageMask.raw()),
    lambda: TrialEngine(SchemeParams(eta=0.3, sigma=0.7, phi=0.4,
                                     phi_probe=0.9, cutoff=30)),
    lambda: TrialEngine(
        SchemeParams(eta=0.2, sigma=0.05, cutoff=120, grid=WIDE),
        input_state=coherent_state(0.5, 120)),
], ids=["ideal", "finite-lo", "finite-lo-no-back", "raw", "phi-probe",
        "sharp-coherent"])
def test_batched_conditionals_match_the_per_outcome_operators(make):
    eng = make()
    batch = eng.trials(RngSeed(4).generator(), 500, want_second=True)
    assert len(eng._cache) >= 10
    for index, entry in eng._cache.items():
        _assert_entry_matches(entry, _reference_entry(eng, index))
    # every run reads its own outcome's entry
    index = _nearest_index(eng.grid.points, batch.outcome)
    assert np.array_equal(batch.post_mean,
                          [eng._cache[i].mean for i in index.tolist()])


def test_identity_control_entry_is_the_input_state(canonical_engine):
    eng = canonical_engine
    batch = eng.trials(RngSeed(4).generator(), 50, want_second=True,
                       identity_control=True)
    assert batch.feedback_mode == "identity-control"
    entry = eng._identity_conditional()
    xq = make_quadrature(30, 0.0)
    psi = eng._psi
    mean = np.vdot(psi, xq @ psi).real
    dens = quadrature_density(StateVector(psi), eng.second_grid)
    _assert_entry_matches(entry, (psi, mean,
                                  np.linalg.norm(xq @ psi) ** 2 - mean ** 2,
                                  dens.values / dens.normalization()))
    assert np.all(batch.post_mean == entry.mean)


def test_poisoned_entries_stay_honoured():
    eng = TrialEngine(CANONICAL)
    poisoned = [int(i) for i in np.argsort(eng.density.values)[-3:]]
    for index in poisoned:
        eng._cache[index] = None
    batch = eng.trials(RngSeed(8).generator(), 400, want_second=True)
    assert all(eng._cache[i] is None for i in poisoned)
    assert not np.isin(batch.outcome, eng.grid.points[poisoned]).any()
    assert batch.resamples.sum() > 0
    for index, entry in eng._cache.items():
        if index not in poisoned:
            _assert_entry_matches(entry, _reference_entry(eng, index))


def test_builder_engine_takes_one_readout(monkeypatch):
    # at phi_probe != phi the readout stage runs once on the input column;
    # the density and every batch of reductions reuse it
    calls = []
    sectors = scheme._mixer_sectors

    def counting(*args):
        calls.append(args)
        return sectors(*args)

    monkeypatch.setattr(scheme, "_mixer_sectors", counting)
    readouts = []
    readout = scheme.SchemeFamilyBuilder._readout_columns

    def counting_readout(self, cols):
        readouts.append(cols.shape)
        return readout(self, cols)

    monkeypatch.setattr(scheme.SchemeFamilyBuilder, "_readout_columns",
                        counting_readout)
    params = SchemeParams(eta=0.5, sigma=1.5, phi_probe=0.3, cutoff=20)
    eng = TrialEngine(params, input_state=coherent_state(0.5, 20))
    assert eng._builder is not None
    batch = eng.trials(RngSeed(5).generator(), 500, want_second=True)
    assert len(np.unique(batch.outcome)) >= 5
    assert len(calls) == 1 and readouts == [(50, 1)]


def test_one_composition_per_batch_of_new_outcomes(monkeypatch):
    eng = TrialEngine(CANONICAL)
    assert eng._builder is None
    calls = []

    def counting(params, xs, cols, rows, mask):
        calls.append((len(xs), cols.shape, rows))
        return composed_reductions(params, xs, cols, rows, mask)

    monkeypatch.setattr(montecarlo, "composed_reductions", counting)
    batch = eng.trials(RngSeed(5).generator(), 3000, want_second=True)
    distinct = len(np.unique(batch.outcome))
    assert calls == [(distinct, (30, 1), 30)]
    # a second batch composes only the outcomes it draws first
    eng.trials(RngSeed(5).generator(), 3000, want_second=True)
    assert len(calls) == 1
    # a longer one reaches one outcome the first did not draw
    more = eng.trials(RngSeed(6).generator(), 20000)
    assert len(np.setdiff1d(more.outcome, batch.outcome)) == 1
    assert calls[1:] == [(1, (30, 1), 30)]


def test_truncated_reductions_carry_one_warning():
    # the exact density certifies the kept levels: at Delta 0.05 a
    # cutoff-40 post state drops a sizeable part of its norm, at the
    # canonical preset it drops 1e-10
    sharp = TrialEngine(SchemeParams(eta=0.2, sigma=0.05, cutoff=40))
    batch = sharp.trials(RngSeed(3).generator(), 200)
    (text,) = sharp.warnings
    kept, index, levels = sharp._worst_capture
    assert kept < 0.9 and sharp.grid.points[index] in batch.outcome
    assert levels == 40
    assert text == (f"the reduced state at outcome "
                    f"{sharp.grid.points[index]:.6g} loses a fraction "
                    f"{1.0 - kept:.6g} of its probability beyond 40 levels")
    fine = TrialEngine(SchemeParams(eta=0.5, sigma=1.0, cutoff=40))
    fine.trials(RngSeed(3).generator(), 200)
    assert fine.warnings == () and fine._worst_capture[0] > 1.0 - 1e-8


def test_captured_fraction_certifies_the_finite_lo_rows():
    # the oscillator channel acts on n_work = ceil(margin cutoff) levels:
    # at margin 1 the feedback-free post state at sigma 0.05 is cut at the
    # cutoff (it keeps 1 - 3.7e-7), at margin 2.5 it is whole.  Either way
    # the back-squeezed post state, anti-squeezed about sixfold in the
    # conjugate quadrature, keeps only 0.966 of its trace in the 30 levels
    # of the cutoff, and that is the one warning, naming those levels
    params = SchemeParams(eta=0.8, sigma=0.05, cutoff=30)
    flo = FeedbackSpec.finite_lo(1e3)
    tight = TrialEngine(params, flo, margin=1.0)
    roomy = TrialEngine(params, flo)
    for eng in (tight, roomy):
        eng.trials(RngSeed(4).generator(), 100)
    assert tight._rows == 30 and roomy._rows == 75
    rows_kept = {}
    for eng in (tight, roomy):
        drawn = np.array(sorted(i for i, e in eng._cache.items() if e))
        rows_kept[eng._rows] = np.min(np.linalg.norm(
            eng._reduced(drawn), axis=1) ** 2 / eng._exact[drawn])
        (text,) = eng.warnings
        kept, index, levels = eng._worst_capture
        assert levels == 30 and kept < 0.97
        assert text.endswith(
            f"{1.0 - kept:.6g} of its probability beyond 30 levels")
    assert rows_kept[30] < 1.0 - 1e-7 and rows_kept[75] > 1.0 - 1e-8


def test_finite_lo_post_state_cut_at_the_cutoff_warns():
    # at (0.2, 0.5) the back-squeezed post state at outcome -2 keeps
    # 0.99975 of its trace in the 40 levels of the cutoff (0.99829 at
    # outcome 4); at (0.8, 2) every drawn one is whole
    flo = FeedbackSpec.finite_lo(40.0)
    for (eta, sigma), warns in (((0.2, 0.5), True), ((0.8, 2.0), False)):
        eng = TrialEngine(SchemeParams(eta=eta, sigma=sigma, phi=0.3,
                                       cutoff=40), flo)
        eng.trials(RngSeed(1).generator(), 2000, want_second=True)
        kept, index, levels = eng._worst_capture
        if warns:
            assert eng.warnings == (
                f"the reduced state at outcome {eng.grid.points[index]:.6g} "
                f"loses a fraction {1.0 - kept:.6g} of its probability "
                f"beyond 40 levels",)
            assert levels == 40 and kept < 1.0 - 1e-4
        else:
            assert eng.warnings == () and kept > 1.0 - 1e-8


def test_capture_warning_prints_a_nonzero_loss_near_one():
    # a kept fraction in [1 - 5e-7, 1 - 1e-8) prints to 6 digits as 1; the
    # lost fraction it prints instead reads 4.61085e-08 here
    eng = TrialEngine(SchemeParams(eta=0.5, sigma=0.5, phi=0.3, cutoff=40),
                      FeedbackSpec.finite_lo(40.0))
    eng.trials(RngSeed(7).generator(), 2000, want_second=True)
    kept, index, _ = eng._worst_capture
    assert 1.0 - 5e-7 < kept < 1.0 - 1e-8 and f"{kept:.6g}" == "1"
    (text,) = eng.warnings
    lost = float(text.split("loses a fraction ")[1].split()[0])
    assert text.startswith(f"the reduced state at outcome "
                           f"{eng.grid.points[index]:.6g} loses")
    assert text.endswith(" of its probability beyond 40 levels")
    assert lost > 1e-8 and abs(lost - (1.0 - kept)) <= 1e-6 * lost


@pytest.mark.parametrize("beta", [8.0, 40.0])
@pytest.mark.parametrize("eta,sigma", [(0.5, 2.0), (0.8, 1.0), (0.8, 2.0)])
def test_finite_lo_post_moments_match_the_covariance_oracle(eta, sigma,
                                                             beta):
    # the oracle conditions the pre-squeezed input on the readout, then
    # applies pure loss of transmissivity theta (mean sqrt(theta) m,
    # covariance theta V + (1 - theta)/4), the displacement and the
    # back-squeeze: no Fock-space code on its side
    params = SchemeParams(eta=eta, sigma=sigma, phi=0.3, cutoff=40)
    flo = FeedbackSpec.finite_lo(beta)
    eng = TrialEngine(params, flo)
    readout = GaussianSchemeOracle(params,
                                   mask=StageMask(True, False, False))
    back = squeeze_symplectic(backsqueeze_param(eta), params.phi)
    for x in (-2.0, -1.0, 0.0, 1.25, 2.5):
        index = int(np.flatnonzero(eng.grid.points == x)[0])
        eng.post_state(index)
        amp = feedback_displacement(x, eta, params.phi)
        theta = flo.theta(amp)
        state = readout.post_state(x)
        lossy = GaussianState(math.sqrt(theta) * state.mean,
                              theta * state.cov
                              + 0.25 * (1.0 - theta) * np.eye(2))
        post = back.apply(displacement_transform(amp).apply(lossy))
        mean, var = quadrature_statistics(post, 0, params.phi)
        entry = eng._cache[index]
        assert abs(entry.mean - mean) < 1e-13
        assert abs(entry.variance - var) < 1e-13
    assert eng.warnings == ()


# ---------------------------------------------------------------------------
# sampler distribution law


def test_sampler_ks_against_target_cdf(canonical_engine):
    xs = sample_outcomes(canonical_engine.density, 100000, RngSeed(1))
    ks = ks_against_density(xs, canonical_engine.density)
    assert ks < ks_critical_value(100000, alpha=0.01)


def test_sampler_ks_below_critical_for_all_presets():
    n = 100000
    for eta in (0.2, 0.5, 0.8):
        for sigma in (0.5, 1.0, 2.0):
            eng = TrialEngine(SchemeParams(eta=eta, sigma=sigma, cutoff=30))
            xs = sample_outcomes(eng.density, n,
                                 RngSeed(7, f"{eta}/{sigma}"))
            assert ks_against_density(xs, eng.density) \
                < ks_critical_value(n, alpha=0.01)


def test_sample_variance_matches_oracle_value():
    # vacuum signal, canonical preset: outcome variance 1/4 + Delta^2 = 3/8;
    # tabulate finely enough that the piecewise-linear model's variance
    # inflation (step^2/6) stays well below the statistical tolerance
    grid = OutcomeGrid.from_range(-3.0, 3.0, 0.05)
    eng = TrialEngine(SchemeParams(eta=0.5, sigma=1.0, cutoff=30, grid=grid))
    n = 100000
    xs = sample_outcomes(eng.density, n, RngSeed(13))
    three_se = 3.0 * 0.375 * math.sqrt(2.0 / n)
    assert abs(np.var(xs) - 0.375) < three_se
    assert abs(np.mean(xs)) < 3.0 * math.sqrt(0.375 / n)


def test_point_mass_density_sampled_into_its_bin():
    pts = np.linspace(-2.0, 2.0, 41)
    step = pts[1] - pts[0]
    vals = np.zeros(41)
    vals[25] = 1.0 / step  # unit mass concentrated at x = 0.5
    dens = OutcomeDensity(OutcomeGrid(pts), vals)
    draws = sample_outcomes(dens, 200, RngSeed(3))
    assert np.all(np.abs(draws - 0.5) <= step)


def test_inverse_cdf_is_stable_when_neighbouring_values_are_close():
    # one bin with rise/f0 ~ 1.7e-5: the root must not lose the digits that
    # (disc - f0) / rise cancels, so a relative 1e-15 change of f0 and f1
    # moves the drawn point by rounding only
    u = np.array([0.1, 0.3, 0.5, 0.77, 0.95])
    grid = OutcomeGrid(np.array([0.0, 1.0]))
    f0, f1 = 1.0 - 0.85e-5, 1.0 + 0.85e-5
    dens = OutcomeDensity(grid, np.array([f0, f1]))
    moved = OutcomeDensity(grid, np.array([f0 * (1 + 1e-15),
                                           f1 * (1 - 1e-15)]))
    t = _inverse_cdf(dens, u)
    assert np.max(np.abs(_inverse_cdf(moved, u) - t)) < 1e-14
    assert np.max(np.abs(_cdf_at(dens, t) - u)) < 1e-15


def test_nearest_index_matches_argmin_with_ties_to_the_left():
    # lo + step * arange(n) is not exactly evenly spaced in floating point
    pts = OutcomeGrid.from_range(-3.7, 4.1, 0.03).points
    assert len(np.unique(np.diff(pts))) > 1
    mids = 0.5 * (pts[:-1] + pts[1:])
    ties = np.abs(pts[:-1] - mids) == np.abs(pts[1:] - mids)
    assert ties.sum() > 10
    xs = np.concatenate([
        pts, mids, [pts[0], pts[-1], pts[0] - 1.0, pts[-1] + 1.0],
        np.random.default_rng(5).uniform(pts[0], pts[-1], 10 ** 4)])
    want = np.array([np.argmin(np.abs(pts - x)) for x in xs])
    assert np.array_equal(_nearest_index(pts, xs), want)
    assert np.array_equal(_nearest_index(pts, mids[ties]),
                          np.flatnonzero(ties))


def test_sampler_rejects_unnormalized_density(canonical_engine):
    bad = OutcomeDensity(canonical_engine.grid,
                         2.0 * canonical_engine.density.values)
    with pytest.raises(ParameterError):
        sample_outcomes(bad, 10, RngSeed(0))


def test_ks_critical_value_formula():
    assert_allclose(ks_critical_value(100000, 0.01),
                    math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(100000),
                    rtol=1e-12)
    with pytest.raises(ParameterError):
        ks_critical_value(0)
    with pytest.raises(ParameterError):
        ks_critical_value(100, alpha=1.5)


# ---------------------------------------------------------------------------
# single trials


def test_trial_posterior_moments_match_oracle(canonical_engine):
    rng = RngSeed(3).generator()
    recs = [canonical_engine.trial(rng) for _ in range(800)]
    outs = np.array([r.outcome for r in recs])
    means = np.array([r.post_mean for r in recs])
    variances = np.array([r.post_variance for r in recs])
    # posterior mean gain v/(v + Delta^2) = 2/3 at the canonical preset
    slope = np.polyfit(outs, means, 1)[0]
    assert_allclose(slope, 2.0 / 3.0, atol=1e-6)
    # posterior variance is outcome-independent: 1/12 for every trial
    assert_allclose(variances, 1.0 / 12.0, atol=1e-6)
    assert all(r.feedback_mode == "ideal" for r in recs)
    assert all(r.second_outcome is None for r in recs)


def test_post_mean_concentrates_on_outcome_for_sharp_probe():
    # sigma = 0.1, eta = 0.5: the posterior pulls within 2*Delta of the
    # outcome in at least 99% of trials
    params = SchemeParams(eta=0.5, sigma=0.1, cutoff=40)
    delta = math.sqrt(0.5 * 0.1) / 2.0
    eng = TrialEngine(params)
    rng = RngSeed(9).generator()
    n = 10000
    hits = sum(
        abs(r.post_mean - r.outcome) < 2.0 * delta
        for r in (eng.trial(rng) for _ in range(n)))
    assert hits >= 0.99 * n


def test_weak_measurement_limit_leaves_state_unchanged():
    # transmissivity -> 1 without compensation stages: the probe stays
    # uncorrelated noise and the signal passes through untouched
    params = SchemeParams(eta=0.999, sigma=1.0, cutoff=30)
    vac = vacuum_state(30)
    eng = TrialEngine(params, mask=StageMask.raw())
    rng = RngSeed(5).generator()
    worst = 0.0
    for _ in range(200):
        rec = eng.trial(rng)
        idx = int(np.argmin(np.abs(eng.grid.points - rec.outcome)))
        worst = max(worst, trace_distance(eng.post_state(idx), vac))
    assert worst <= 0.01
    # vacuum in, vacuum probe: the mixer fixes the joint vacuum, so the
    # undressed reduction is exactly proportional to the identity on it
    assert worst <= 1e-8


def test_weak_measurement_limit_coherent_input():
    params = SchemeParams(eta=0.999, sigma=1.0, cutoff=30)
    inp = coherent_state(0.4, 30)
    eng = TrialEngine(params, input_state=inp, mask=StageMask.raw())
    rng = RngSeed(5).generator()
    worst = 0.0
    for _ in range(200):
        rec = eng.trial(rng)
        idx = int(np.argmin(np.abs(eng.grid.points - rec.outcome)))
        worst = max(worst, trace_distance(eng.post_state(idx), inp))
    assert worst <= 0.01


def test_trial_record_requires_finite_fields():
    with pytest.raises(ParameterError):
        TrialRecord(outcome=math.nan, post_mean=0.0, post_variance=0.1,
                    second_outcome=None, feedback_mode="ideal")
    with pytest.raises(ParameterError):
        TrialRecord(outcome=0.0, post_mean=0.0, post_variance=0.1,
                    second_outcome=math.inf, feedback_mode="ideal")


def test_engine_rejects_mismatched_input_cutoff():
    with pytest.raises(ParameterError):
        TrialEngine(CANONICAL, input_state=vacuum_state(31))


def test_zero_probability_outcome_triggers_logged_resample():
    eng = TrialEngine(CANONICAL)
    probe = eng.trial(RngSeed(42).generator())
    first_idx = int(np.argmin(np.abs(eng.grid.points - probe.outcome)))
    # simulate a grid artifact: the first drawn outcome has no support
    eng2 = TrialEngine(CANONICAL)
    eng2._cache[first_idx] = None
    rec = eng2.trial(RngSeed(42).generator())
    assert rec.resamples >= 1
    assert rec.outcome != probe.outcome


def test_zero_probability_everywhere_hits_the_retry_cap():
    eng = TrialEngine(CANONICAL)
    for i in range(len(eng.grid.points)):
        eng._cache[i] = None
    with pytest.raises(ZeroProbabilityError):
        eng.trial(RngSeed(1).generator())


# ---------------------------------------------------------------------------
# finite-local-oscillator feedback


def test_finite_lo_zero_target_leaves_state_unchanged():
    psi = coherent_state(0.3, 25)
    out = finite_lo_displacement(psi, 0.0, beta=50.0)
    ref = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert_allclose(out.matrix, ref, atol=1e-14)


def test_finite_lo_error_quarters_per_beta_doubling():
    psi = coherent_state(0.3, 30)
    target = 0.8 + 0.2j
    disp = laguerre_displacement(target, 30)
    base = np.outer(psi.amplitudes, psi.amplitudes.conj())
    ideal = disp @ base @ disp.conj().T
    errs = [trace_distance(finite_lo_displacement(psi, target, beta), ideal)
            for beta in (10.0, 20.0, 40.0)]
    assert errs[0] > errs[1] > errs[2]
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 3.0 <= ratio <= 5.0  # quadratic convergence, +-25%


def test_finite_lo_large_beta_matches_ideal_displacement():
    psi = coherent_state(0.3, 30)
    disp = laguerre_displacement(1.0, 30)
    base = np.outer(psi.amplitudes, psi.amplitudes.conj())
    ideal = disp @ base @ disp.conj().T
    out = finite_lo_displacement(psi, 1.0, beta=1e3)
    assert trace_distance(out, ideal) <= 1e-3


def test_finite_lo_infeasible_amplitude_raises():
    psi = vacuum_state(20)
    with pytest.raises(InfeasibleFeedbackError):
        finite_lo_displacement(psi, 2.0, beta=1.5)
    with pytest.raises(ParameterError):
        finite_lo_displacement(psi, 0.5, beta=0.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf,
                                  complex(1.0, math.nan)])
def test_finite_lo_rejects_non_finite_beta(beta):
    with pytest.raises(ParameterError):
        finite_lo_displacement(vacuum_state(20), 0.5, beta)


def test_engine_validates_finite_lo_feasibility_on_widened_grid():
    params = SchemeParams(eta=0.2, sigma=1.0, cutoff=30)
    with pytest.raises(InfeasibleFeedbackError):
        TrialEngine(params, feedback=FeedbackSpec.finite_lo(5.0))
    TrialEngine(params, feedback=FeedbackSpec.finite_lo(20.0))


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.05])
def test_feedback_modes_agree_at_large_beta(eta):
    # the oscillator channel must act at working size like the ideal
    # displacement: a truncated-cutoff feedback and back-squeeze leave a
    # gap that grows with the feedback gain sqrt((1-eta)/eta)
    params = SchemeParams(eta=eta, sigma=1.0, cutoff=30)
    ideal = TrialEngine(params)
    flo = TrialEngine(params, feedback=FeedbackSpec.finite_lo(1e3))
    r1, r2 = RngSeed(33).generator(), RngSeed(33).generator()
    for _ in range(300):
        a = ideal.trial(r1)
        b = flo.trial(r2)
        assert a.outcome == b.outcome  # same density, same draws
        assert b.feedback_mode == "finite-lo"
        idx = int(np.argmin(np.abs(flo.grid.points - b.outcome)))
        fid = fidelity_to_pure(ideal.post_state(idx), flo.post_state(idx))
        assert fid >= 1.0 - 1e-3
        assert abs(a.post_mean - b.post_mean) < 1e-4
        assert abs(a.post_variance - b.post_variance) < 1e-4


# ---------------------------------------------------------------------------
# repeatability experiments


def test_repeatability_variance_matches_oracle_at_quarter_width():
    # Delta = 0.25 via eta=0.5, sigma=0.5; snap on a fine grid so the
    # outcome discretization stays below the statistical tolerance
    grid = OutcomeGrid.from_range(-3.0, 3.0, 0.1)
    params = SchemeParams(eta=0.5, sigma=0.5, cutoff=40, grid=grid)
    n = 10000
    stats = repeatability_experiment(params, n, RngSeed(21))
    oracle = gap_variance_ideal_second(0.25)
    three_se = 3.0 * oracle * math.sqrt(2.0 / (n - 1))
    assert abs(stats.diff_variance - oracle) < three_se
    # regression slope of y on x approaches the posterior gain 0.8
    assert abs(stats.slope - 0.8) < 3.0 * stats.slope_halfwidth
    assert stats.n_trials == n
    assert stats.confidence == 0.95


def test_repeatability_variance_shrinks_with_kernel_width():
    # A conditional state of x-width delta needs on the order of
    # (pi/(4 delta))^2 levels; the engine's exact composition reaches them
    cases = [  # (delta, eta, sigma, cutoff)
        (0.05, 0.2, 0.05, 300), (0.1, 0.5, 0.08, 150), (0.25, 0.5, 0.5, 100)]
    grid = OutcomeGrid.from_range(-3.5, 3.5, 0.25)
    variances = []
    for delta, eta, sigma, cutoff in cases:
        params = SchemeParams(eta=eta, sigma=sigma, cutoff=cutoff, grid=grid)
        engine = TrialEngine(params, second_step=0.01)
        assert np.array_equal(engine.grid.points, grid.points)
        stats = repeatability_experiment(params, 400, RngSeed(17, f"{delta}"),
                                         engine=engine)
        variances.append(stats.diff_variance)
    assert variances[0] < variances[1] < variances[2]
    for var, delta in zip(variances, (0.05, 0.1, 0.25)):
        assert 0.5 * delta ** 2 < var < 2.0 * delta ** 2


def test_identity_control_has_zero_slope(canonical_engine):
    stats = repeatability_experiment(
        CANONICAL, 600, RngSeed(12), engine=canonical_engine,
        identity_control=True)
    assert abs(stats.slope) < 2.0 * stats.slope_halfwidth


def test_repeatability_requires_enough_trials():
    with pytest.raises(ParameterError):
        repeatability_experiment(CANONICAL, 99, RngSeed(0))
    with pytest.raises(ParameterError):
        repeatability_experiment(CANONICAL, 100, RngSeed(0), confidence=1.0)


def test_repeatability_statistics_agree_across_feedback_modes():
    flo_engine = TrialEngine(CANONICAL, feedback=FeedbackSpec.finite_lo(1e3))
    ideal = repeatability_experiment(CANONICAL, 400, RngSeed(8))
    flo = repeatability_experiment(CANONICAL, 400, RngSeed(8),
                                   engine=flo_engine)
    # identical draws, nearly identical conditionals: the statistics must
    # agree far inside their own confidence widths
    assert abs(ideal.diff_variance - flo.diff_variance) \
        < 0.1 * ideal.diff_variance_halfwidth
    assert abs(ideal.slope - flo.slope) < 0.1 * ideal.slope_halfwidth


def test_repeatability_stats_fields_finite():
    stats = repeatability_experiment(CANONICAL, 150, RngSeed(2))
    assert isinstance(stats, RepeatabilityStats)
    for name in ("diff_mean", "diff_variance", "slope",
                 "diff_mean_halfwidth", "diff_variance_halfwidth",
                 "slope_halfwidth"):
        assert math.isfinite(getattr(stats, name))
    assert stats.diff_mean_halfwidth > 0


# 1 - 2^-53, the largest confidence below 1, rounds 0.5 (1 + c) up to 1
@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999,
                                        1.0 - 2.0 ** -53])
def test_repeatability_quantile_matches_erfinv(confidence):
    from scipy.special import erfinv

    rng = np.random.default_rng(4)
    first = rng.normal(size=200)
    stats = summarize_repeatability(first, 0.8 * first
                                    + rng.normal(size=200), confidence)
    z = stats.diff_mean_halfwidth / math.sqrt(stats.diff_variance / 200)
    assert abs(z - math.sqrt(2.0) * float(erfinv(confidence))) <= 1e-13
