"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The first test runs one op (one untraced and traced pair with ``--trace 1``)
of every workload, about a minute and a half on two cores.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _run(name, trace, tmp_path, seconds=0.0, seed=3):
    return harness.run(name, seed, seconds, trace, str(tmp_path),
                       str(ROOT / "src"), 2)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    end_to_end, per_layer, workloads = _declared()
    assert name in workloads
    for trace, declared in ((False, end_to_end), (True, per_layer)):
        result = _run(name, trace, tmp_path)["result"]
        assert result["failed"] == 0 and result["correct"]
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def _span(sid, parent, name, t0, t1, work=None):
    return [sid, parent, 0, name, t0, t1, work, False, None]


def test_self_time_on_a_span_tree_nested_across_modules():
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "scheme.SchemeFamilyBuilder.__init__", 1.0, 6.0, 160),
        _span(2, 1, "fock.squeezed_vacuum", 2.0, 3.0),
        _span(3, 0, "scheme.SchemeFamilyBuilder.family", 6.5, 9.0, 25),
        _span(4, 3, "kernel.vn_target_family", 7.0, 8.5),
        _span(5, 4, "fock.quadrature_eigenvector_matrix", 7.5, 8.0, 25),
    ]
    own = spans.self_times(tree)
    assert own == {0: 2.5, 1: 4.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 0.5}
    m = spans.layer_metrics(tree)
    assert (m["cli.self_s"], m["scheme.self_s"], m["kernel.self_s"],
            m["fock.self_s"], m["gaussian.self_s"]) == (2.5, 5.0, 1.0, 1.5, 0)
    assert sum(m[f"{mod}.self_s"] for mod in spans.MODULES) == 10.0
    assert (m["scheme.calls"], m["fock.calls"], m["montecarlo.calls"]) \
        == (2, 2, 0)
    assert m["scheme.builder_init_s"] == 5.0
    assert m["scheme.family_s"] == 2.5
    assert m["kernel.vn_target_s"] == 1.5
    assert (m["scheme.n_work"], m["scheme.family_outcomes"],
            m["fock.eigvec_rows"]) == (160, 25, 25)


def test_recorder_sees_calls_between_modules_and_restores_bindings():
    from quadmeas import fock, scheme
    from quadmeas.kernel import OutcomeGrid

    original = scheme.squeezed_vacuum
    params = scheme.SchemeParams(eta=0.5, sigma=1.0, cutoff=6,
                                 grid=OutcomeGrid.from_spec("-1:1:0.5"))
    recorder = spans.Recorder()
    with recorder.installed(7):
        assert scheme.squeezed_vacuum is not original
        scheme.SchemeFamilyBuilder(params, 2.0).family()
    assert scheme.squeezed_vacuum is original is fock.squeezed_vacuum
    names = {s[spans.SID]: s[spans.NAME] for s in recorder.spans()}
    children = {(names[s[spans.PARENT]], s[spans.NAME])
                for s in recorder.spans() if s[spans.PARENT] is not None}
    assert ("scheme.SchemeFamilyBuilder.__init__",
            "fock.squeezed_vacuum") in children
    assert ("scheme.SchemeFamilyBuilder.family",
            "fock.quadrature_eigenvector_matrix") in children
    assert all(s[spans.OP] == 7 for s in recorder.spans())
    m = spans.layer_metrics(recorder.spans())
    roots = [s for s in recorder.spans() if s[spans.PARENT] is None]
    assert len(roots) == 2
    assert sum(m[f"{mod}.self_s"] for mod in spans.MODULES) \
        == pytest.approx(sum(s[spans.T1] - s[spans.T0] for s in roots))
    assert m["scheme.n_work"] == 12 and m["scheme.family_outcomes"] == 5


def test_failing_check_counts_in_fail_frac_and_run_goes_on(monkeypatch,
                                                          tmp_path):
    def check(argv, doc):
        index = int(argv[-1])
        if index == 2:
            raise KeyError("missing field")
        return index % 2 == 0, {}

    def inputs(seed):  # four ops, then the loop ends
        for i in range(4):
            yield ["pom", "--cutoff", "8", "--margin", "2",
                   "--grid=-2:2:0.5", "--seed", str(i)]

    monkeypatch.setitem(harness.WORKLOADS, "flaky",
                        harness.Workload("flaky", inputs, check))
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    report = _run("flaky", False, tmp_path, seconds=60.0)
    result = report["result"]
    assert [op["ok"] for op in report["ops"]] == [True, False, False, False]
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert not result["correct"]
    assert report["fail_frac"]["value"] == 0.75
    assert report["ops"][2]["error"].startswith("check KeyError")


def test_inputs_come_from_the_seed_only():
    for workload in harness.WORKLOADS.values():
        first = list(itertools.islice(workload.inputs(11), 9))
        assert first == list(itertools.islice(workload.inputs(11), 9))
        assert first != list(itertools.islice(workload.inputs(12), 9))
    verify = list(itertools.islice(harness.WORKLOADS["verify"].inputs(5), 9))
    presets = [(float(a[2]), float(a[4])) for a in verify]
    assert set(presets) == set(harness.PRESETS) and (0.8, 2.0) in presets
    for start in (0, 3, 6):
        block = presets[start:start + 3]
        assert {e for e, _ in block} == set(harness.ETAS)
        assert {s for _, s in block} == set(harness.SIGMAS)
