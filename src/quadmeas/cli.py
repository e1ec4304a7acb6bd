"""Command-line front end: ``quadmeas verify | pom | sample | sweep``.

Configuration comes from defaults, then an optional ``key = value`` config
file (``--config``), then command-line flags, in increasing precedence.
Every resolved parameter — including defaults that were applied — is echoed
in the output metadata, so any emitted file can reproduce its own run.

Output goes to ``--out`` (written atomically: temp file + rename) or stdout.
CSV files carry leading ``# key=value`` metadata lines, a mandatory header
row, '.'-decimal UTF-8 numbers printed with 17 significant digits; JSON
reports have the stable top-level shape {meta, checks, results}.  The
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
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    "grid": (str, "-3:3:0.25"),
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
    "pom_tol": (float, 1e-8),
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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH")
    shared.add_argument("--eta", type=float)
    shared.add_argument("--sigma", type=float)
    shared.add_argument("--phi", type=float)
    shared.add_argument("--cutoff", type=int)
    shared.add_argument("--grid", metavar="MIN:MAX:STEP")
    shared.add_argument("--feedback", choices=("ideal", "finite-lo"))
    shared.add_argument("--beta", type=float)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--stream")
    shared.add_argument("--trials", type=int)
    shared.add_argument("--repeat", action="store_true", default=None)
    shared.add_argument("--out", metavar="PATH")
    shared.add_argument("--format", choices=("csv", "json"))
    shared.add_argument("--margin", type=float)
    shared.add_argument("--sweep-eta", dest="sweep_eta", metavar="LIST")
    shared.add_argument("--sweep-sigma", dest="sweep_sigma", metavar="LIST")
    shared.add_argument("--sweep-beta", dest="sweep_beta", metavar="LIST")
    top = argparse.ArgumentParser(
        prog="quadmeas",
        description="verification and experiment runner for the "
                    "quadrature-measurement scheme")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify", "run the invariant suite over the preset grid"),
            ("pom", "emit the outcome density with oracle comparison"),
            ("sample", "emit seeded trial records (and repeat statistics)"),
            ("sweep", "emit metric rows over parameter ranges")):
        sub.add_parser(name, parents=[shared], help=help_text)
    return top


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


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quadmeas-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_csv(cfg: RunConfig, header: Sequence[str],
              rows: Sequence[Sequence[object]],
              stats: Optional[Dict[str, object]] = None) -> None:
    lines = [f"# {key}={_fmt(value)}" for key, value in
             sorted(_metadata(cfg).items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if stats:
        for key, value in stats.items():
            lines.append(f"# {key}={_fmt(value)}")
    _write_text(cfg.values["out"], "\n".join(lines) + "\n")


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, byte
    for byte, for documents with string keys.  Indentation forces json's
    pure-Python encoder, so the dicts and lists are walked here and each
    list of scalars goes to the C encoder in one call, with the indented
    item separator."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys here must be str")
        body = ",\n".join(f"{inner}{json.dumps(key)}: {_json_text(v, inner)}"
                          for key, v in sorted(obj.items()))
        return "{\n" + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(issubclass(t, (dict, list, tuple))
               for t in set(map(type, obj))):
            body = ",\n".join(inner + _json_text(v, inner) for v in obj)
        else:
            body = inner + json.dumps(obj, separators=(",\n" + inner, ": "),
                                      allow_nan=False)[1:-1]
        return "[\n" + body + "\n" + indent + "]"
    return json.dumps(obj, allow_nan=False)


def _emit_json(cfg: RunConfig, checks: List[Dict[str, object]],
               results: Dict[str, object]) -> None:
    doc = {"meta": _metadata(cfg), "checks": checks, "results": results}
    _write_text(cfg.values["out"], _json_text(doc) + "\n")


def _print_warnings(warnings: Iterable[str]) -> None:
    for text in dict.fromkeys(warnings):
        print(f"warning: {text}", file=sys.stderr)


def _rows_to_results(header: Sequence[str],
                     rows: Sequence[Sequence[object]]) -> Dict[str, list]:
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


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
        # small transmissivities need extra working room: the factored
        # exponentials carry larger coefficients there
        bch_cutoff = max(cfg.values["cutoff"], 40)
        rep = verify_bch_factorization(
            eta, cutoff=bch_cutoff,
            working_cutoff=int(math.ceil(3.5 * bch_cutoff)))
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
        header = ("check", "eta", "sigma", "value", "tolerance", "status")
        rows = [(c["name"], c["eta"], c["sigma"], c["value"], c["tolerance"],
                 "pass" if c["passed"] else "FAIL") for c in checks]
        _emit_csv(cfg, header, rows)
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
    fit_mean = density.mean()
    fit_var = density.variance()
    header = ("x", "density", "oracle_density", "deviation",
              "fit_mean", "fit_var", "delta")
    rows = [(float(x), float(p), float(o), float(abs(p - o)),
             fit_mean, fit_var, delta)
            for x, p, o in zip(grid.points, vals, oracle_vals)]
    if cfg.values["format"] == "json":
        results = _rows_to_results(header, rows)
        results["normalization_defect"] = density.normalization_defect()
        _emit_json(cfg, [], results)
    else:
        _emit_csv(cfg, header, rows,
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
        "trial": list(range(n)),
        "outcome": batch.outcome.tolist(),
        "post_mean": batch.post_mean.tolist(),
        "post_variance": batch.post_variance.tolist(),
        "second_outcome": [None] * n if batch.second_outcome is None
        else batch.second_outcome.tolist(),
        "feedback_mode": [batch.feedback_mode] * n,
        "resamples": batch.resamples.tolist(),
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
        _emit_csv(cfg, tuple(columns), list(zip(*columns.values())),
                  stats=stats or None)
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
    header = ("eta", "sigma", "beta", "metric", "value", "status")
    rows: List[Tuple] = []
    warnings: List[str] = []
    any_error = False
    for eta in etas:
        for sigma in sigmas:
            try:
                res = build_scheme_family(
                    cfg.scheme_params(eta, sigma), margin=margin)
                warnings += res.family.warnings
                rows.append((eta, sigma, None, "identity-deviation",
                             res.max_deviation, "ok"))
            except QuadmeasError as exc:
                any_error = True
                rows.append((eta, sigma, None, "identity-deviation", None,
                             f"error:{type(exc).__name__}"))
    for beta in betas:
        try:
            error, beta_warnings = _finite_lo_reference_error(beta)
            warnings += beta_warnings
            rows.append((None, None, beta, "feedback-error", error, "ok"))
        except QuadmeasError as exc:
            any_error = True
            rows.append((None, None, beta, "feedback-error", None,
                         f"error:{type(exc).__name__}"))
    if cfg.values["format"] == "json":
        _emit_json(cfg, [], _rows_to_results(header, rows))
    else:
        _emit_csv(cfg, header, rows)
    _print_warnings(warnings)
    return 1 if any_error else 0


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
