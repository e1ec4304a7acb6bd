"""Command-line front end: ``quadmeas verify | pom | sample | sweep``.

Configuration comes from defaults, then an optional ``key = value`` config
file (``--config``), then command-line flags, in increasing precedence.
Every resolved parameter — including defaults that were applied — is echoed
in the output metadata, so any emitted file can reproduce its own run.

Output goes to ``--out`` (written atomically: temp file + rename) or stdout.
CSV files carry leading ``# key=value`` metadata lines, a mandatory header
row, '.'-decimal UTF-8 numbers printed with 17 significant digits; JSON
reports have the stable top-level shape {meta, checks, results}, the text
of ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` with each
array read as its ``tolist()``.  Every command hands both writers its table
as a dict of equal-length columns, lists or 1-D arrays; an array column of
200 rows or more that repeats a value is encoded once per distinct value,
and the JSON writer encodes a list that repeats one str or None once.  The
metadata timestamp honors SOURCE_DATE_EPOCH for byte-reproducible runs.

Exit codes: 0 success, 1 check or experiment failure, 2 configuration error.
Each distinct warning that the library's constructors attached to the
objects a command used goes to stderr once, as ``warning: <text>``; it
changes neither the exit code nor the artifact.

Config file schema (same names accept ``--flag`` spellings where listed):

    eta, sigma, phi, cutoff, grid (min:max:step), feedback (ideal|finite-lo),
    beta, seed, stream, trials, repeat (true|false), out, format (csv|json),
    margin, confidence, sweep_eta, sweep_sigma, sweep_beta (comma lists),
    identity_tol, pom_tol, completeness_tol, bch_tol, su2_tol, generator_tol
"""

import argparse
import datetime
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import __version__
from .errors import ParameterError, QuadmeasError
from .fock import coherent_state, trace_distance, vacuum_state
from .kernel import OutcomeDensity, OutcomeGrid, widen_grid_for_density
from .montecarlo import (
    RngSeed,
    TrialEngine,
    finite_lo_displacement,
    summarize_repeatability,
)
from .scheme import (
    DEFAULT_GRID_SPEC,
    FeedbackSpec,
    GaussianSchemeOracle,
    SchemeParams,
    _check_margin,
    build_scheme_family,
    composed_density,
    measurement_width,
    verify_bch_factorization,
)

__all__ = ["main", "RunConfig"]


class _ConfigError(Exception):
    """Anything wrong with flags or config files; exits with status 2."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise _ConfigError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> List[float]:
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise _ConfigError(f"bad number in list {text!r}: {exc}") from None


def parse_grid_spec(spec: str) -> OutcomeGrid:
    """Outcome grid from a "min:max:step" string."""
    try:
        return OutcomeGrid.from_spec(spec)
    except QuadmeasError as exc:
        raise _ConfigError(str(exc)) from None


# key -> (parser, default).  Tolerance keys are config-file only; the rest
# also exist as flags.
_SCHEMA = {
    "eta": (float, 0.5),
    "sigma": (float, 1.0),
    "phi": (float, 0.0),
    "cutoff": (int, 40),
    "grid": (str, DEFAULT_GRID_SPEC),
    "feedback": (str, "ideal"),
    "beta": (float, None),
    "seed": (int, 0),
    "stream": (str, "main"),
    "trials": (int, 1000),
    "repeat": (_parse_bool, False),
    "out": (str, None),
    "format": (str, "csv"),
    "margin": (float, None),
    "confidence": (float, 0.95),
    "identity_tol": (float, 1e-6),
    "pom_tol": (float, 1e-10),
    "completeness_tol": (float, 1e-4),
    "bch_tol": (float, 1e-8),
    "su2_tol": (float, 1e-10),
    "generator_tol": (float, 1e-10),
    "sweep_eta": (_parse_float_list, None),
    "sweep_sigma": (_parse_float_list, None),
    "sweep_beta": (_parse_float_list, None),
}

_PRESET_ETAS = (0.2, 0.5, 0.8)
_PRESET_SIGMAS = (0.5, 1.0, 2.0)


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults + config file + flags)."""

    command: str
    values: Dict[str, object]
    provided: set = field(default_factory=set)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def resolved_margin(self, default: float) -> float:
        return self.values["margin"] if self.values["margin"] is not None \
            else default

    def scheme_params(self, eta: Optional[float] = None,
                      sigma: Optional[float] = None) -> SchemeParams:
        return SchemeParams(
            eta=self.values["eta"] if eta is None else eta,
            sigma=self.values["sigma"] if sigma is None else sigma,
            phi=self.values["phi"], cutoff=self.values["cutoff"],
            grid=parse_grid_spec(self.values["grid"]))

    def feedback_spec(self) -> FeedbackSpec:
        if self.values["feedback"] == "ideal":
            return FeedbackSpec.ideal()
        if self.values["beta"] is None:
            raise ParameterError("finite-lo feedback requires beta")
        return FeedbackSpec.finite_lo(self.values["beta"])

    def rngseed(self) -> RngSeed:
        return RngSeed(self.values["seed"], self.values["stream"])


def _read_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from None
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise _ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(_SCHEMA)))
        out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadmeas",
        description="verification and experiment runner for the "
                    "quadrature-measurement scheme")
    parser.add_argument(
        "command", choices=("verify", "pom", "sample", "sweep"),
        help="verify: run the invariant suite over the preset grid; "
             "pom: emit the outcome density with oracle comparison; "
             "sample: emit seeded trial records (and repeat statistics); "
             "sweep: emit metric rows over parameter ranges")
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--eta", type=float)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--phi", type=float)
    parser.add_argument("--cutoff", type=int)
    parser.add_argument("--grid", metavar="MIN:MAX:STEP")
    parser.add_argument("--feedback", choices=("ideal", "finite-lo"))
    parser.add_argument("--beta", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--stream")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--repeat", action="store_true", default=None)
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--margin", type=float)
    parser.add_argument("--sweep-eta", dest="sweep_eta", metavar="LIST")
    parser.add_argument("--sweep-sigma", dest="sweep_sigma", metavar="LIST")
    parser.add_argument("--sweep-beta", dest="sweep_beta", metavar="LIST")
    return parser


def resolve_config(argv: Sequence[str]) -> RunConfig:
    """Merge defaults, config file and flags; validate all numeric bounds."""
    ns = _build_parser().parse_args(argv)
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    provided = set()
    if ns.config is not None:
        for key, text in _read_config_file(ns.config).items():
            parser_fn = _SCHEMA[key][0]
            try:
                values[key] = parser_fn(text)
            except (_ConfigError, ValueError) as exc:
                raise _ConfigError(f"config key {key}: {exc}") from None
            provided.add(key)
    for key in _SCHEMA:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            if isinstance(flag_value, str) and _SCHEMA[key][0] not in (str,):
                flag_value = _SCHEMA[key][0](flag_value)
            values[key] = flag_value
            provided.add(key)
    cfg = RunConfig(ns.command, values, provided)
    if values["format"] not in ("csv", "json"):
        raise _ConfigError(f"format must be csv or json, got "
                           f"{values['format']!r}")
    if values["feedback"] not in ("ideal", "finite-lo"):
        raise _ConfigError(f"feedback must be ideal or finite-lo, got "
                           f"{values['feedback']!r}")
    if values["trials"] < 0:
        raise _ConfigError(f"trials must be >= 0, got {values['trials']}")
    for key in (k for k in _SCHEMA if k.endswith("_tol")):
        if not (values[key] >= 0.0 and math.isfinite(values[key])):
            raise _ConfigError(f"{key} must be a finite number >= 0, got "
                               f"{values[key]}")
    try:
        cfg.scheme_params()
        cfg.feedback_spec()
        cfg.rngseed()
        if values["margin"] is not None:
            _check_margin(values["margin"])
    except QuadmeasError as exc:
        raise _ConfigError(str(exc)) from None
    if cfg.command == "sweep":
        for key in ("sweep_eta", "sweep_sigma", "sweep_beta"):
            if key in provided and not values[key]:
                raise _ConfigError(f"{key} lists no values")
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        when = datetime.datetime.fromtimestamp(
            int(epoch), tz=datetime.timezone.utc)
    else:
        when = datetime.datetime.now(tz=datetime.timezone.utc)
    return when.replace(microsecond=0).isoformat().replace("+00:00", "Z")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _metadata(cfg: RunConfig) -> Dict[str, object]:
    meta: Dict[str, object] = {
        "command": cfg.command,
        "artifact_version": __version__,
        "timestamp": _timestamp(),
        "rng_algorithm": RngSeed.algorithm,
    }
    for key in sorted(_SCHEMA):
        if key == "out":
            continue
        meta[key] = cfg.values[key]
    return meta


def _write_text(path: Optional[str], pieces: Iterable[str]) -> None:
    """Write the text's pieces in order to stdout, all at once, or to
    ``path``, atomically."""
    if path is None:
        sys.stdout.write("".join(pieces))
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quadmeas-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_texts(values: Iterable[object]) -> List[str]:
    return [_fmt(v) for v in values]


def _json_texts(values: list) -> List[str]:
    """The JSON text of each value of a non-empty list of scalars, from one
    call of json's C encoder (no scalar's text holds a raw newline)."""
    return json.dumps(values, separators=("\n", ": "),
                      allow_nan=False)[1:-1].split("\n")


# Below this many rows np.unique's fixed cost (about 10 us) outweighs the
# repeats it saves: pom's 37-row columns encode faster as plain lists.
_DISTINCT_MIN_ROWS = 200


def _repeats(column: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(distinct values, inverse) of a 1-D array of _DISTINCT_MIN_ROWS rows
    or more that repeats a value, values told apart by bit pattern, so -0.0
    and 0.0 stay apart; None for a shorter or all-distinct array, which is
    cheaper to encode whole.  np.unique is asked for the inverse even to
    tell all-distinct apart: without it numpy takes a slower hash path."""
    if len(column) < _DISTINCT_MIN_ROWS:
        return None
    keys = column.view(f"i{column.itemsize}") \
        if column.dtype.kind == "f" else column
    keys, inverse = np.unique(keys, return_inverse=True)
    if len(keys) == len(column):
        return None
    return keys.view(column.dtype), inverse


def _array_texts(column: np.ndarray,
                 encode: Callable[[list], List[str]]) -> list:
    """``encode(column.tolist())`` for a 1-D array, each distinct value
    encoded once if the column _repeats."""
    repeats = _repeats(column)
    if repeats is None:
        return encode(column.tolist())
    return _spread(repeats, encode)


def _spread(repeats: Tuple[np.ndarray, np.ndarray],
            encode: Callable[[list], List[str]]) -> list:
    """The texts of a column from its _repeats: each distinct value's text,
    gathered by the inverse."""
    keys, inverse = repeats
    return np.array(encode(keys.tolist()), dtype=object)[inverse].tolist()


def _emit_csv(cfg: RunConfig, columns: Dict[str, object],
              stats: Optional[Dict[str, object]] = None) -> None:
    """The table of equal-length columns (lists, or 1-D arrays read as
    their ``tolist()``) under its metadata lines and header row."""
    lines = [f"# {key}={_fmt(value)}" for key, value in
             sorted(_metadata(cfg).items())]
    lines.append(",".join(columns))
    texts = [_array_texts(c, _csv_texts) if isinstance(c, np.ndarray)
             else _csv_texts(c) for c in columns.values()]
    lines.extend(map(",".join, zip(*texts)))
    if stats:
        for key, value in stats.items():
            lines.append(f"# {key}={_fmt(value)}")
    _write_text(cfg.values["out"], ("\n".join(lines), "\n"))


_CONTAINERS = (dict, list, tuple, np.ndarray)


def _one_text(values: Sequence[object]) -> bool:
    """Whether a list repeats one str or None, so that every value has the
    first one's text: only a str equals a str, and only None equals None."""
    return len(values) > 0 and isinstance(values[0], (str, type(None))) \
        and values.count(values[0]) == len(values)


def _json_items(values: Sequence[object], inner: str) -> str:
    """The JSON texts of a non-empty list of scalars, each on its own line
    at indent ``inner``, from one call of json's C encoder, or one text
    repeated for a list that repeats one str or None."""
    sep = ",\n" + inner
    if _one_text(values):
        return sep.join([json.dumps(values[0])] * len(values))
    return json.dumps(values, separators=(sep, ": "), allow_nan=False)[1:-1]


def _json_pieces(obj, indent: str = "") -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False, default=lambda a: a.tolist())``, byte for byte, as
    pieces in order, for documents with string keys.  Indentation forces
    json's pure-Python encoder, so the dicts and lists are walked here and
    each list of scalars goes to the C encoder in one call, with the
    indented item separator; a 1-D array goes through _array_texts.  A
    large list is one piece, so no text longer than it is formed."""
    inner = indent + "  "
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1 or not len(obj):
            yield from _json_pieces(obj.tolist(), indent)
            return
        repeats = _repeats(obj)
        yield "[\n" + inner
        yield _json_items(obj.tolist(), inner) if repeats is None \
            else (",\n" + inner).join(_spread(repeats, _json_texts))
        yield "\n" + indent + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys here must be str")
        head = "{\n"
        for key, value in sorted(obj.items()):
            head = f"{head}{inner}{json.dumps(key)}: "
            if isinstance(value, _CONTAINERS):
                yield head
                yield from _json_pieces(value, inner)
            else:  # one piece per scalar entry: each piece is one write
                yield head + json.dumps(value, allow_nan=False)
            head = ",\n"
        yield "\n" + indent + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
        elif any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
            head = "[\n"
            for value in obj:
                yield head + inner
                yield from _json_pieces(value, inner)
                head = ",\n"
            yield "\n" + indent + "]"
        else:
            yield "[\n" + inner
            yield _json_items(obj, inner)
            yield "\n" + indent + "]"
    else:
        yield json.dumps(obj, allow_nan=False)


def _finite_or_none(value):
    """A number as JSON can hold it: NaN and infinities, which only the
    sweep lists let through to a table, become None (null)."""
    return None if isinstance(value, float) and not math.isfinite(value) \
        else value


def _emit_json(cfg: RunConfig, checks: List[Dict[str, object]],
               results: Dict[str, object]) -> None:
    meta = {key: [_finite_or_none(v) for v in value]
            if isinstance(value, list) else value
            for key, value in _metadata(cfg).items()}
    doc = {"meta": meta, "checks": checks, "results": results}
    _write_text(cfg.values["out"], itertools.chain(_json_pieces(doc), "\n"))


def _print_warnings(warnings: Iterable[str]) -> None:
    for text in dict.fromkeys(warnings):
        print(f"warning: {text}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(cfg: RunConfig) -> int:
    """Pipeline-identity, POM-identity, completeness, operator-splitting
    and generator-form checks over the preset grid (or one explicit pair)."""
    if "eta" in cfg.provided or "sigma" in cfg.provided:
        pairs = [(cfg.values["eta"], cfg.values["sigma"])]
    else:
        pairs = [(e, s) for e in _PRESET_ETAS for s in _PRESET_SIGMAS]
    margin = cfg.resolved_margin(4.0)
    tols = {
        "pipeline-identity": cfg.values["identity_tol"],
        "pom-identity": cfg.values["pom_tol"],
        "completeness": cfg.values["completeness_tol"],
    }
    checks: List[Dict[str, object]] = []
    warnings: List[str] = []

    def add(name, eta, sigma, value, tol):
        checks.append({"name": name, "eta": eta, "sigma": sigma,
                       "value": value, "tolerance": tol,
                       "passed": bool(value <= tol)})

    for eta, sigma in pairs:
        res = build_scheme_family(cfg.scheme_params(eta, sigma),
                                  margin=margin)
        warnings += res.family.warnings
        add("pipeline-identity", eta, sigma, res.max_deviation,
            tols["pipeline-identity"])
        add("pom-identity", eta, sigma, res.pom_deviation,
            tols["pom-identity"])
        add("completeness", eta, sigma, res.completeness_defect_family,
            tols["completeness"])
    for eta in sorted({e for e, _ in pairs}):
        rep = verify_bch_factorization(
            eta, cutoff=max(cfg.values["cutoff"], 40))
        add("bch-factorization", eta, None, rep.factorization_deviation,
            cfg.values["bch_tol"])
        add("bch-su2", eta, None, max(rep.su2_plus_minus_deviation,
                                      rep.su2_z_plus_deviation,
                                      rep.su2_z_minus_deviation),
            cfg.values["su2_tol"])
        add("generator-form", eta, None, rep.generator_form_deviation,
            cfg.values["generator_tol"])
    failed = [c for c in checks if not c["passed"]]
    if cfg.values["format"] == "json":
        _emit_json(cfg, checks, {"n_checks": len(checks),
                                 "n_failed": len(failed)})
    else:
        columns = {"check": [c["name"] for c in checks]}
        for key in ("eta", "sigma", "value", "tolerance"):
            columns[key] = [c[key] for c in checks]
        columns["status"] = ["pass" if c["passed"] else "FAIL"
                             for c in checks]
        _emit_csv(cfg, columns)
    _print_warnings(warnings)
    for c in failed:
        print(f"FAIL {c['name']}: value {_fmt(c['value'])} exceeds "
              f"tolerance {_fmt(c['tolerance'])}", file=sys.stderr)
    return 1 if failed else 0


def cmd_pom(cfg: RunConfig) -> int:
    """Outcome density of the vacuum signal on an automatically widened
    grid, exact at every cutoff (composed_density; --margin is not read),
    with the Gaussian-oracle density and kernel width alongside."""
    params = cfg.scheme_params()
    psi = vacuum_state(params.cutoff)
    grid, vals = widen_grid_for_density(
        lambda pts: composed_density(params, psi, pts), params.grid)
    density = OutcomeDensity(grid, vals)
    oracle_mean, oracle_var = GaussianSchemeOracle(params).outcome_moments()
    oracle_vals = np.exp(-0.5 * (grid.points - oracle_mean) ** 2
                         / oracle_var) / math.sqrt(2 * math.pi * oracle_var)
    delta = measurement_width(params.eta, params.sigma)
    n = len(grid)
    columns = {
        "x": grid.points,
        "density": vals,
        "oracle_density": oracle_vals,
        "deviation": np.abs(vals - oracle_vals),
        "fit_mean": np.full(n, density.mean()),
        "fit_var": np.full(n, density.variance()),
        "delta": np.full(n, delta),
    }
    if cfg.values["format"] == "json":
        results: Dict[str, object] = dict(columns)
        results["normalization_defect"] = density.normalization_defect()
        _emit_json(cfg, [], results)
    else:
        _emit_csv(cfg, columns,
                  stats={"normalization_defect":
                         density.normalization_defect()})
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    """Seeded trial records; with repeat mode, second outcomes and the
    aggregate repeatability statistics."""
    engine = TrialEngine(cfg.scheme_params(), cfg.feedback_spec(),
                         margin=cfg.resolved_margin(2.5))
    repeat = cfg.values["repeat"]
    n = cfg.values["trials"]
    batch = engine.trials(cfg.rngseed().generator(), n, want_second=repeat)
    columns = {
        "trial": np.arange(n),
        "outcome": batch.outcome,
        "post_mean": batch.post_mean,
        "post_variance": batch.post_variance,
        "second_outcome": [None] * n if batch.second_outcome is None
        else batch.second_outcome,
        "feedback_mode": [batch.feedback_mode] * n,
        "resamples": batch.resamples,
    }
    stats: Dict[str, object] = {}
    if repeat and n >= 100:
        agg = summarize_repeatability(batch.outcome, batch.second_outcome,
                                      cfg.values["confidence"])
        stats = {
            "n_trials": agg.n_trials,
            "diff_mean": agg.diff_mean,
            "diff_mean_halfwidth": agg.diff_mean_halfwidth,
            "diff_variance": agg.diff_variance,
            "diff_variance_halfwidth": agg.diff_variance_halfwidth,
            "slope": agg.slope,
            "slope_halfwidth": agg.slope_halfwidth,
            "confidence": agg.confidence,
        }
    if cfg.values["format"] == "json":
        results: Dict[str, object] = dict(columns)
        if stats:
            results["stats"] = stats
        _emit_json(cfg, [], results)
    else:
        _emit_csv(cfg, columns, stats=stats or None)
    _print_warnings(engine.warnings)
    return 0


def _finite_lo_reference_error(beta: float, cutoff: int = 30
                               ) -> Tuple[float, Tuple[str, ...]]:
    """Trace distance between the oscillator-realized and ideal unit
    displacement on a fixed mildly excited reference state, with the
    realized state's warnings; the ideal result is the closed form
    D(1)|0.5> = |1.5>."""
    rho = finite_lo_displacement(coherent_state(0.5, cutoff), 1.0, beta)
    return trace_distance(rho, coherent_state(1.5, cutoff)), rho.warnings


def cmd_sweep(cfg: RunConfig) -> int:
    """Long-format metric table over Cartesian parameter ranges."""
    etas = cfg.values["sweep_eta"] or [cfg.values["eta"]]
    sigmas = cfg.values["sweep_sigma"] or [cfg.values["sigma"]]
    betas = cfg.values["sweep_beta"] or []
    margin = cfg.resolved_margin(4.0)
    columns: Dict[str, list] = {name: [] for name in (
        "eta", "sigma", "beta", "metric", "value", "status")}
    warnings: List[str] = []
    failed: List[str] = []
    any_error = False

    def add(eta, sigma, beta, *rest):
        # a cell's coordinates come from the sweep lists unchecked; one
        # that is not finite fails its cell and is written as null
        row = [_finite_or_none(v) for v in (eta, sigma, beta)] + list(rest)
        for column, value in zip(columns.values(), row):
            column.append(value)

    for eta in etas:
        for sigma in sigmas:
            try:
                res = build_scheme_family(
                    cfg.scheme_params(eta, sigma), margin=margin)
                warnings += res.family.warnings
                # a cell that misses verify's identity tolerance reads and
                # exits as its check would
                tol = cfg.values["identity_tol"]
                passed = res.max_deviation <= tol
                add(eta, sigma, None, "identity-deviation",
                    res.max_deviation, "ok" if passed else "FAIL")
                if not passed:
                    failed.append(
                        f"FAIL identity-deviation at eta {eta:g}, sigma "
                        f"{sigma:g}: value {_fmt(res.max_deviation)} "
                        f"exceeds tolerance {_fmt(tol)}")
            except QuadmeasError as exc:
                any_error = True
                add(eta, sigma, None, "identity-deviation", None,
                    f"error:{type(exc).__name__}")
    for beta in betas:
        try:
            error, beta_warnings = _finite_lo_reference_error(beta)
            warnings += beta_warnings
            add(None, None, beta, "feedback-error", error, "ok")
        except QuadmeasError as exc:
            any_error = True
            add(None, None, beta, "feedback-error", None,
                f"error:{type(exc).__name__}")
    if cfg.values["format"] == "json":
        _emit_json(cfg, [], columns)
    else:
        _emit_csv(cfg, columns)
    _print_warnings(warnings)
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if any_error or failed else 0


_DISPATCH = {
    "verify": cmd_verify,
    "pom": cmd_pom,
    "sample": cmd_sample,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = resolve_config(sys.argv[1:] if argv is None else list(argv))
    except _ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except QuadmeasError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
