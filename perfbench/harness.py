"""Workloads, per-op correctness checks and the closed-loop runner of the
quadmeas benchmark.

One op is one ``quadmeas.cli.main(argv)`` call with ``--format json --out
<file>`` appended; the next op starts when the previous one returns (one
client, closed loop, no thread pool).  Every op is checked against a
tolerance the repository already states; an op that raises, exits non-zero
or misses its check counts as failed and the run goes on.  Inputs are made
from the workload seed only, and the generated argv are listed in the report.
"""

import contextlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import spans

# the CLI's preset grid; verify must keep (0.8, 2.0), whose pom-identity
# (9.1e-10) passes the CLI tolerance 1e-8 but not PipelineResult.check's 1e-10
ETAS = (0.2, 0.5, 0.8)
SIGMAS = (0.5, 1.0, 2.0)
PRESETS = tuple((eta, sigma) for eta in ETAS for sigma in SIGMAS)

# oracle tolerances of tests/test_acceptance.py (density) and
# tests/test_montecarlo.py (post-measurement moments)
ORACLE_DENSITY_TOL = 1e-8
ORACLE_MOMENT_TOL = 1e-8

SAMPLE_TRIALS = 10000

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 9
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import quadmeas; "
                 "print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# workloads


def preset_order(seed: int) -> List[tuple]:
    """The nine presets in a seeded order made of three blocks, each of which
    holds every eta and every sigma once (a Latin square).  Op cost depends
    on eta and sigma, so a run of three ops costs about the same whatever
    the seed, and the seed still decides which pairs run."""
    rng = random.Random(seed)
    etas, sigmas = list(ETAS), list(SIGMAS)
    rng.shuffle(etas)
    rng.shuffle(sigmas)
    blocks = [[(etas[i], sigmas[(i + b) % 3]) for i in range(3)]
              for b in range(3)]
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    return [pair for block in blocks for pair in block]


def _preset_argvs(prefix: List[str], seed: int) -> Iterator[List[str]]:
    for eta, sigma in itertools.cycle(preset_order(seed)):
        yield prefix + ["--eta", repr(eta), "--sigma", repr(sigma)]


def _sample_argvs(seed: int) -> Iterator[List[str]]:
    rng = random.Random(seed)
    while True:
        yield ["sample", "--trials", str(SAMPLE_TRIALS), "--repeat",
               "--seed", str(rng.randrange(2 ** 32))]


def check_verify(argv, doc):
    """The command's own verdict: every JSON check passed."""
    values = {}
    for c in doc["checks"]:
        values[c["name"]] = max(values.get(c["name"], 0.0), c["value"])
    ok = bool(doc["checks"]) and doc["results"]["n_failed"] == 0 \
        and all(c["passed"] for c in doc["checks"])
    return ok, values


def check_pom(argv, doc):
    """Density against the Gaussian-oracle column."""
    worst = max(doc["results"]["deviation"])
    return worst <= ORACLE_DENSITY_TOL, {"max_deviation": worst}


def check_sample(argv, doc):
    """Post-measurement moments of every distinct first outcome against
    GaussianSchemeOracle; the repeat-variance z-score is information only."""
    from quadmeas.kernel import OutcomeGrid
    from quadmeas.scheme import (GaussianSchemeOracle, SchemeParams,
                                 measurement_width)

    meta, res = doc["meta"], doc["results"]
    params = SchemeParams(eta=meta["eta"], sigma=meta["sigma"],
                          phi=meta["phi"], cutoff=meta["cutoff"],
                          grid=OutcomeGrid.from_spec(meta["grid"]))
    oracle = GaussianSchemeOracle(params)
    worst = 0.0
    for x, mean, var in set(zip(res["outcome"], res["post_mean"],
                                res["post_variance"])):
        o_mean, o_var = oracle.post_quadrature_moments(x)
        worst = max(worst, abs(mean - o_mean), abs(var - o_var))
    stats = res["stats"]
    delta2 = measurement_width(params.eta, params.sigma) ** 2
    z = (stats["diff_variance"] - delta2) \
        / (stats["diff_variance"] * math.sqrt(2.0 / (stats["n_trials"] - 1)))
    ok = worst <= ORACLE_MOMENT_TOL \
        and len(res["outcome"]) == SAMPLE_TRIALS \
        and None not in res["second_outcome"]
    return ok, {"max_moment_deviation": worst,
                "distinct_outcomes": len(set(res["outcome"])),
                "diff_variance": stats["diff_variance"],
                "diff_variance_z": z}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator[List[str]]]
    check: Callable


WORKLOADS = {w.name: w for w in (
    # the paper's claim as users check it: every scheme and kernel stage,
    # with verify_bch_factorization setting time share and peak memory
    Workload("verify", lambda seed: _preset_argvs(["verify"], seed),
             check_verify),
    # the large-cutoff regime: the dense probe contraction is ~95% of the op;
    # no family loop, back-squeeze, BCH or montecarlo
    Workload("pom-large",
             lambda seed: _preset_argvs(
                 ["pom", "--cutoff", "100", "--margin", "2.5"], seed),
             check_pom),
    # per-trial Python overhead in montecarlo and kernel, and ~1.26 MB of
    # JSON through the cli layer
    Workload("sample-repeat", _sample_argvs, check_sample),
)}


# ---------------------------------------------------------------------------
# ops and the closed loop


@dataclass
class Op:
    index: int
    argv: List[str]
    traced: bool
    seconds: float = 0.0
    rc: Optional[int] = None
    ok: bool = False
    error: Optional[str] = None
    out_bytes: int = 0
    values: Dict[str, float] = field(default_factory=dict)


def run_op(workload: Workload, index: int, argv: List[str], out_path: str,
           recorder: Optional[spans.Recorder] = None) -> Op:
    """One timed ``cli.main`` call followed by its (untimed) check."""
    from quadmeas import cli

    op = Op(index, list(argv), recorder is not None)
    if os.path.exists(out_path):
        os.unlink(out_path)
    full = op.argv + ["--format", "json", "--out", out_path]
    tracing = recorder.installed(index) if recorder is not None \
        else contextlib.nullcontext()
    try:
        with tracing:
            t0 = time.perf_counter()
            try:
                op.rc = cli.main(full)
            finally:
                op.seconds = time.perf_counter() - t0
    except SystemExit as exc:  # argparse rejecting the argv
        op.rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising op is a failed op; the run goes on
        op.error = f"{type(exc).__name__}: {exc}"
        return op
    if op.rc != 0:
        op.error = f"exit code {op.rc}"
    try:
        op.out_bytes = os.path.getsize(out_path)
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        passed, op.values = workload.check(op.argv, doc)
    except Exception as exc:  # a check that cannot run is a missed check
        op.error = op.error or f"check {type(exc).__name__}: {exc}"
        return op
    if not passed:
        op.error = op.error or "correctness check failed"
    op.ok = op.rc == 0 and passed
    return op


def closed_loop(workload: Workload, seed: int, seconds: float,
                run_one: Callable[[int, List[str]], List[Op]]) -> List[Op]:
    """Start ops back to back until ``seconds`` have passed (at least one)."""
    ops: List[Op] = []
    start = time.perf_counter()
    for index, argv in enumerate(workload.inputs(seed)):
        if ops and time.perf_counter() - start >= seconds:
            break
        ops.extend(run_one(index, argv))
    return ops


# ---------------------------------------------------------------------------
# environment and set-up


def environment(blas_threads: int) -> Dict[str, object]:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_cap": blas_threads,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def setup_samples(src: str, n: int) -> List[float]:
    """Seconds to import quadmeas (numpy and scipy included) in each of
    ``n`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=src)
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------------------
# runs


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        out_dir: str, src: str, blas_threads: int) -> Dict[str, object]:
    """Run one workload; returns the report, whose ``result`` is the
    benchmark's one-line verdict."""
    workload = WORKLOADS[workload_name]
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"op-{os.getpid()}.json")
    load_before = os.getloadavg()
    report: Dict[str, object] = {"workload": workload_name, "seed": seed,
                                 "seconds": seconds, "trace": int(trace)}
    if trace:
        recorder = spans.Recorder()

        def pair(index, argv):
            return [run_op(workload, index, argv, out_path),
                    run_op(workload, index, argv, out_path, recorder)]

        ops = closed_loop(workload, seed, seconds, pair)
        metrics = traced_metrics(ops, recorder)
        spans_path = os.path.join(out_dir, f"spans-{workload_name}.tsv")
        recorder.write(spans_path)
        report["spans_file"] = spans_path
        units = spans.LAYER_UNITS
    else:
        setup = setup_samples(src, SETUP_SAMPLES)
        ops = closed_loop(
            workload, seed, seconds,
            lambda index, argv: [run_op(workload, index, argv, out_path)])
        metrics = untraced_metrics(ops, setup)
        report["setup_samples_s"] = setup
        units = END_TO_END_UNITS
    if os.path.exists(out_path):
        os.unlink(out_path)
    failed = sum(1 for op in ops if not op.ok)
    report.update({
        "environment": environment(blas_threads),
        "load_average_before": load_before,
        "load_average_after": os.getloadavg(),
        "ops": [asdict(op) for op in ops],
        "inputs": [op.argv for op in ops if not op.traced],
        "op_samples": sum(1 for op in ops if op.traced == trace),
        "fail_frac": {"value": failed / len(ops), "unit": "ratio"},
    })
    report["result"] = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return report


def untraced_metrics(ops: List[Op], setup: List[float]) -> Dict[str, float]:
    times = [op.seconds for op in ops]
    return {
        "ops_per_s": len(ops) / sum(times),
        "op_p50_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced_metrics(ops: List[Op],
                   recorder: spans.Recorder) -> Dict[str, float]:
    """Per-layer metrics of each traced op, median over the run's ops.
    ``ops`` alternates untraced and traced runs of the same argv."""
    return spans.median_metrics([
        spans.layer_metrics(recorder.spans(traced.index), {
            "cli.out_bytes": traced.out_bytes,
            "trace.overhead_frac": traced.seconds / plain.seconds - 1.0,
        }) for plain, traced in zip(ops[::2], ops[1::2])])
