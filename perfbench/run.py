"""quadmeas benchmark: closed-loop runs of ``quadmeas.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see ``harness.WORKLOADS``): ``verify``, ``pom-large`` and
``sample-repeat``; ``all`` runs each in its own fresh process.  With
``--trace 0`` the run reports the end-to-end metrics (ops per second, median
op time, import time of quadmeas, peak resident memory); with ``--trace 1``
it alternates untraced and traced ops and reports per-layer metrics from
spans around the package's public functions (``spans.py``).

Output: one JSON report line (environment, generated argv, every op with its
check values, ``fail_frac``), one ``name value unit`` line per metric, and as
the last line ``{"correct", "attempted", "failed", "metrics"}``.  Spans and
scratch files go to ``.perfbench_out/`` in the checkout.  The program is
imported from ``src/`` of the checkout; without it the run exits with 2.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import harness  # imports no numpy: the BLAS thread cap is set first

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# One BLAS thread: on 2 cores with OpenBLAS 0.3.31 a second thread made the
# pom-large op about 3x slower (8-12 s against 3.1 s) and its time spread
# wider; the matrices here are too small for threads to pay.
BLAS_THREADS = 1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(harness.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own fresh process; their lines, then one
    combined verdict."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "quadmeas" / "cli.py").is_file():
        print(f"no quadmeas sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads in this process
        os.environ[var] = str(BLAS_THREADS)
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import quadmeas
    if Path(quadmeas.__file__).resolve().parent != SRC / "quadmeas":
        print(f"imported quadmeas from {quadmeas.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    report = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), str(OUT_DIR), str(SRC),
                         BLAS_THREADS)
    result = report["result"]
    print(json.dumps(report, sort_keys=True))
    print(f"{args.workload} fail_frac {report['fail_frac']['value']!r} ratio "
          f"({result['failed']} of {result['attempted']} ops; "
          f"{report['op_samples']} op samples per metric)")
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
