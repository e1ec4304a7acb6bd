"""Spans around the public functions and methods of quadmeas, recorded from
outside the package, and the per-layer metrics derived from them.

A layer is one quadmeas module.  ``Recorder.installed()`` rebinds every
public function and method of the six traced modules to a wrapper that
records one span per call: name, start, end, parent span, op id, a work
count for a few functions, whether it exited by exception, and for two
memory-heavy spans the ``tracemalloc`` peak inside them.  Module-level names
and module-level dict values that refer to a wrapped function are rebound
too, so that calls between modules (``scheme`` calling
``fock.quadrature_eigenvector_matrix``, ``cli.main`` dispatching through
``_DISPATCH``) are recorded.  Leaving the context restores every binding, so
untraced ops run the package unmodified.
"""

import array
import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
import tracemalloc
import types

MODULES = ("cli", "scheme", "kernel", "fock", "gaussian", "montecarlo")

# span fields
SID, PARENT, OP, NAME, T0, T1, WORK, ERROR, PEAK_MB = range(9)

_BUILDER = "scheme.SchemeFamilyBuilder"
_BCH = "scheme.verify_bch_factorization"

# work counted for a span from (args, kwargs, result)
_WORK = {
    f"{_BUILDER}.__init__": lambda a, k, r: a[0].n_work,
    f"{_BUILDER}.family": lambda a, k, r: len(r.grid),
    "fock.quadrature_eigenvector_matrix": lambda a, k, r: r.shape[0],
    "montecarlo.sample_outcome": lambda a, k, r: 1,
    "montecarlo.sample_outcomes": lambda a, k, r: len(r),
    "montecarlo.TrialEngine.trial": lambda a, k, r: r.resamples,
}

# spans whose tracemalloc peak is recorded (the two largest allocators)
_PEAK_SPANS = frozenset({f"{_BUILDER}.__init__", _BCH})

# name -> unit of every per-layer metric, in the order they are reported
LAYER_UNITS = {}
for _m in MODULES:
    LAYER_UNITS.update({f"{_m}.self_s": "s", f"{_m}.calls": "count",
                        f"{_m}.errors": "count"})
LAYER_UNITS.update({
    "scheme.builder_init_s": "s",
    "scheme.builder_init_peak_mb": "MB",
    "scheme.n_work": "count",
    "scheme.bch_s": "s",
    "scheme.bch_peak_mb": "MB",
    "scheme.family_s": "s",
    "scheme.family_outcomes": "count",
    "scheme.completeness_s": "s",
    "kernel.vn_target_s": "s",
    "kernel.pom_s": "s",
    "scheme.density_s": "s",
    "scheme.density_calls": "count",
    "kernel.widen_evals": "count",
    "montecarlo.engine_init_s": "s",
    "montecarlo.trial_s": "s",
    "kernel.cdf_calls": "count",
    "montecarlo.draws_per_call": "draws/call",
    "scheme.operator_calls": "count",
    "kernel.quadrature_density_s": "s",
    "montecarlo.cache_hit_ratio": "ratio",
    "montecarlo.accept_ratio": "ratio",
    "fock.eigvec_rows": "count",
    "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio",
})


def _defined_in(fn, module) -> bool:
    # excludes re-exported names and dataclass-generated methods
    return isinstance(fn, types.FunctionType) \
        and fn.__code__.co_filename == module.__file__


class Recorder:
    """In-memory span store, one column per field (a run of the
    ``sample-repeat`` workload records about 10^5 spans per op)."""

    def __init__(self):
        self.op = None
        self._names = []
        self._parent = array.array("q")  # -1 for a root span
        self._op = array.array("q")
        self._t0 = array.array("d")
        self._t1 = array.array("d")
        self._work = array.array("d")  # nan when not counted
        self._error = bytearray()
        self._peak_mb = {}
        self._op_range = {}
        self._stack = []

    def __len__(self):
        return len(self._names)

    def span(self, sid):
        """Span ``sid`` as a tuple indexed by SID, PARENT, ... PEAK_MB."""
        parent = self._parent[sid]
        work = self._work[sid]
        return (sid, None if parent < 0 else parent, self._op[sid],
                self._names[sid], self._t0[sid], self._t1[sid],
                None if math.isnan(work) else int(work),
                bool(self._error[sid]), self._peak_mb.get(sid))

    def spans(self, op=None):
        """All spans, or those of one op."""
        start, end = (0, len(self)) if op is None \
            else self._op_range.get(op, (0, 0))
        return [self.span(sid) for sid in range(start, end)]

    def _wrap(self, name, fn):
        work = _WORK.get(name)
        peak = name in _PEAK_SPANS
        stack, names, t0, t1 = self._stack, self._names, self._t0, self._t1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            self._parent.append(stack[-1] if stack else -1)
            self._op.append(self.op)
            t1.append(0.0)
            self._work.append(math.nan)
            self._error.append(0)
            stack.append(sid)
            own_malloc = peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            t0.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._error[sid] = 1
                raise
            finally:
                t1[sid] = time.perf_counter()
                stack.pop()
                if own_malloc:
                    self._peak_mb[sid] = \
                        tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if work is not None:
                self._work[sid] = work(args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(namespace, key, wrapper) for every binding the traced run
        replaces: public methods on their classes, then each module-level
        name or module-level dict value that refers to a public function."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"quadmeas.{short}")
            for key, obj in vars(mod).items():
                if key.startswith("_"):
                    continue
                if _defined_in(obj, mod):
                    wrappers[obj] = self._wrap(f"{short}.{key}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr != "__init__":
                            continue
                        raw = getattr(member, "__func__", member)
                        if _defined_in(raw, mod):
                            new = self._wrap(f"{short}.{obj.__name__}.{attr}",
                                             raw)
                            if raw is not member:  # staticmethod, classmethod
                                new = type(member)(new)
                            yield obj, attr, new
        for name, mod in sys.modules.items():
            if name != "quadmeas" and not name.startswith("quadmeas."):
                continue
            for key, val in vars(mod).items():
                if isinstance(val, dict):
                    for dkey, dval in val.items():
                        if isinstance(dval, types.FunctionType) \
                                and dval in wrappers:
                            yield val, dkey, wrappers[dval]
                elif isinstance(val, types.FunctionType) and val in wrappers:
                    yield vars(mod), key, wrappers[val]

    @contextlib.contextmanager
    def installed(self, op):
        """Trace the calls into quadmeas made inside the block as op ``op``."""
        self.op = op
        start = len(self)
        undo = []
        try:
            for target, key, new in list(self._targets()):
                if isinstance(target, dict):
                    undo.append((target, key, target[key]))
                    target[key] = new
                else:
                    undo.append((target, key, vars(target)[key]))
                    setattr(target, key, new)
            yield self
        finally:
            for target, key, old in reversed(undo):
                if isinstance(target, dict):
                    target[key] = old
                else:
                    setattr(target, key, old)
            self._op_range[op] = (start, len(self))
            self.op = None

    def write(self, path):
        """Write the spans as tab-separated lines with a header row."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tparent\top\tname\tt0\tt1\twork\terror\tpeak_mb\n")
            for sid in range(len(self)):
                fh.write("\t".join("" if v is None else str(v)
                                   for v in self.span(sid)) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = {s[SID]: s[T1] - s[T0] for s in spans}
    for s in spans:
        if s[PARENT] is not None and s[PARENT] in own:
            own[s[PARENT]] -= s[T1] - s[T0]
    return own


def layer_metrics(spans, extra=None):
    """Per-layer metrics of one op's spans (see LAYER_UNITS).

    Inclusive times (``*_s`` other than ``self_s``) sum the outermost spans
    of the named functions, so a function calling another of the set is
    counted once.  ``kernel.widen_evals`` counts the child spans of
    ``widen_grid_for_density`` (one per density evaluation);
    ``montecarlo.cache_hit_ratio`` is 1 - (``SchemeFamilyBuilder.operator``
    calls under a montecarlo span) / trials.  Ratios whose base is zero read
    0.  ``extra`` supplies the metrics not derived from spans
    (``cli.out_bytes``, ``trace.overhead_frac``).
    """
    by_id = {s[SID]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    own = self_times(spans)

    def named(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def ancestors(span):
        while span[PARENT] in by_id:
            span = by_id[span[PARENT]]
            yield span[NAME]

    def outermost(*names):
        return [s for s in named(*names)
                if not any(a in names for a in ancestors(s))]

    def inclusive(*names):
        return sum(s[T1] - s[T0] for s in outermost(*names))

    def work(*names):
        return sum(s[WORK] or 0 for s in named(*names))

    def peak(name):
        return max((s[PEAK_MB] for s in named(name)
                    if s[PEAK_MB] is not None), default=0.0)

    out = {}
    for m in MODULES:
        mine = [s for name, group in by_name.items()
                if name.split(".", 1)[0] == m for s in group]
        out[f"{m}.self_s"] = sum(own[s[SID]] for s in mine)
        out[f"{m}.calls"] = len(mine)
        out[f"{m}.errors"] = sum(1 for s in mine if s[ERROR])

    init = f"{_BUILDER}.__init__"
    draws = outermost("montecarlo.sample_outcome",
                      "montecarlo.sample_outcomes")
    trials = len(named("montecarlo.TrialEngine.trial"))
    builds = sum(1 for s in named(f"{_BUILDER}.operator")
                 if any(a.startswith("montecarlo.") for a in ancestors(s)))
    widen = {s[SID] for s in named("kernel.widen_grid_for_density")}
    out.update({
        "scheme.builder_init_s": inclusive(init),
        "scheme.builder_init_peak_mb": peak(init),
        "scheme.n_work": max((s[WORK] or 0 for s in named(init)), default=0),
        "scheme.bch_s": inclusive(_BCH),
        "scheme.bch_peak_mb": peak(_BCH),
        "scheme.family_s": inclusive(f"{_BUILDER}.family"),
        "scheme.family_outcomes": work(f"{_BUILDER}.family"),
        "scheme.completeness_s": inclusive(f"{_BUILDER}.completeness_defect"),
        "kernel.vn_target_s": inclusive("kernel.vn_target_family"),
        "kernel.pom_s": inclusive("kernel.ReductionOperatorFamily.pom",
                                  "kernel.pom_from_reduction"),
        "scheme.density_s": inclusive(f"{_BUILDER}.outcome_density_values"),
        "scheme.density_calls": len(
            named(f"{_BUILDER}.outcome_density_values")),
        "kernel.widen_evals": sum(1 for s in spans if s[PARENT] in widen),
        "montecarlo.engine_init_s": inclusive(
            "montecarlo.TrialEngine.__init__"),
        "montecarlo.trial_s": inclusive("montecarlo.TrialEngine.trial"),
        "kernel.cdf_calls": len(named("kernel.OutcomeDensity.cdf_nodes")),
        "montecarlo.draws_per_call": (
            sum(s[WORK] or 0 for s in draws) / len(draws) if draws else 0.0),
        "scheme.operator_calls": len(named(f"{_BUILDER}.operator")),
        "kernel.quadrature_density_s": inclusive("kernel.quadrature_density"),
        "montecarlo.cache_hit_ratio": 1.0 - builds / trials if trials else 0.0,
        "montecarlo.accept_ratio": (
            trials / (trials + work("montecarlo.TrialEngine.trial"))
            if trials else 0.0),
        "fock.eigvec_rows": work("fock.quadrature_eigenvector_matrix"),
        "cli.out_bytes": 0,
        "trace.overhead_frac": 0.0,
    })
    out.update(extra or {})
    return out


def median_metrics(per_op):
    """Median over ops of each metric in a list of per-op metric dicts."""
    return {key: statistics.median(m[key] for m in per_op)
            for key in LAYER_UNITS}
