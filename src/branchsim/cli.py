"""Command-line front end: run scenario configs, emit CSV or JSON reports.

Outputs are a pure function of the config file: every report starts with a
provenance line (config hash, master seed, artifact version) and rerunning
the same config yields byte-identical bytes.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 population
overflow, 1 anything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

from . import __version__
from .bisexual import run_bisexual_batch
from .control import Truncation, TruncationAsAbsorption, zubkov_criterion
from .engine import run_batch
from .errors import (BatchTrialError, BranchsimError, BudgetExceedsMass,
                     ConfigError, NumericFailure, PopulationOverflow)
from .law import extinction_probability
from .rng import STREAM_OFFSPRING, spawn_generator
from .scenario import ScenarioConfig

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_OVERFLOW = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _column(values):
    """_fmt of each value of a column.  A column of floats formats each
    distinct value once, but a zero where it stands, since 0.0 == -0.0."""
    kinds = set(map(type, values))
    if kinds == {float}:
        text = {x: repr(x) for x in set(values)}
        return [text[x] if x else repr(x) for x in values]
    return map(str if kinds == {int} else _fmt, values)


def _render_csv(provenance: dict, header: list, rows: list) -> str:
    lines = ["# " + ",".join(f"{k}={v}" for k, v in provenance.items())]
    lines.append(",".join(header))
    columns = map(_column, zip(*rows))
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def _render_json(provenance: dict, header: list, rows: list) -> str:
    def clean(v):
        if isinstance(v, float) and math.isnan(v):
            return None  # JSON has no NaN
        return v
    doc = {"provenance": provenance,
           "columns": header,
           "rows": [[clean(v) for v in row] for row in rows]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _batch_rows(result):
    # every trial may have failed within the failure budget
    trials = result.trials
    return [[n, extinct / trials if trials else math.nan, size_sum / alive if alive else math.nan]
            for n, (extinct, alive, size_sum) in enumerate(zip(
                result.per_generation_extinct_counts.tolist(),
                result.per_generation_alive_counts.tolist(),
                result.per_generation_alive_size_sums))]


def _simulate(config: ScenarioConfig, provenance: dict):
    """Run the config's batch; with a failure budget, record the failed trials."""
    run = run_bisexual_batch if config.experiment == "bisexual" else run_batch
    result = run(config)
    if config.failure_budget > 0:
        provenance["failed_trials"] = len(result.failed_trials)
    return result


def _execute(config: ScenarioConfig, provenance: dict):
    """Run the experiment; return (header, rows)."""
    if config.experiment in ("gw", "controlled", "phi", "bisexual"):
        size = "units" if config.experiment == "bisexual" else "size"
        return (["generation", "extinct_fraction", f"mean_{size}_given_survival"],
                _batch_rows(_simulate(config, provenance)))
    if config.experiment == "bcl_series":
        from .series import _family_schedule, estimate_conditional_series, schedule_search
        result = _simulate(config, provenance)
        family = config.schedule.get("family", "linear")
        if "values" in config.schedule:
            schedule = tuple(config.schedule["values"])
        elif family == "search" and result.trials:
            schedule = schedule_search(result, config.schedule["max_points"])
        else:
            # with no trial left a search ranks nothing and keeps t_k = k,
            # its choice on ties
            schedule = _family_schedule("linear" if family == "search" else family,
                                        result.horizon,
                                        config.schedule["max_points"])
        header = ["k", "t_k", "p_marginal", "p_conditional", "partial_sum"]
        if not result.trials:  # every trial failed within the failure budget
            return header, [[k + 1, t_k, math.nan, math.nan, math.nan]
                            for k, t_k in enumerate(schedule)]
        est = estimate_conditional_series(result, schedule)
        rows = []
        for k, t_k in enumerate(schedule):
            rows.append([k + 1, t_k,
                         float(est.p_marginal[k]),
                         float(est.p_conditional[k]),
                         float(est.partial_sums[k])])
        return header, rows
    if config.experiment == "brs":
        from .brs import brs_bound, estimate_expected_stop, solve_threshold
        pop = config.population
        try:
            t = solve_threshold(pop)
        except BudgetExceedsMass:
            t = math.nan
        bound = brs_bound(pop, t)
        rows = []
        for i, mode in enumerate(config.modes):
            rng = spawn_generator(config.master_seed, i, STREAM_OFFSPRING)
            est = estimate_expected_stop(pop, config.trials, rng, mode=mode)
            rows.append([pop.s, t, bound, est.mean, est.halfwidth, mode])
        return (["s", "t", "bound", "estimate", "halfwidth", "mode"], rows)
    raise ConfigError(f"unknown experiment {config.experiment!r}")


def _compare(config: ScenarioConfig, provenance: dict):
    """Analytic series verdict next to the empirical extinction fraction."""
    if config.experiment not in ("gw", "controlled", "phi"):
        raise ConfigError("compare needs a gw, controlled or phi scenario")
    q = extinction_probability(config.law).q
    verdict, alpha = "", None
    # expectation_criterion at p = q, the verdict of truncation as absorption,
    # is the same series
    if 0.0 < q < 1.0 and isinstance(config.policy, (Truncation, TruncationAsAbsorption)):
        cv = zubkov_criterion(q, config.policy.g)
        verdict, alpha = cv.verdict, cv.decay_exponent
    from .brs import Z99
    result = _simulate(config, provenance)
    frac = result.extinction_fraction
    ci = (Z99 * math.sqrt(max(frac * (1.0 - frac), 0.0) / result.trials)
          if result.trials else math.nan)
    header = ["verdict", "decay_exponent", "q",
              "extinction_fraction", "ci_halfwidth", "trials", "horizon"]
    rows = [[verdict, alpha, q, frac, ci, result.trials, result.horizon]]
    return header, rows


def _load_config(config_path: str) -> tuple[ScenarioConfig, dict]:
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, ints of 4300+ digits, deep nesting
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    config = ScenarioConfig.from_dict(doc)
    provenance = {
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "master_seed": config.master_seed,
        "artifact_version": __version__,
    }
    return config, provenance


def _emit(config: ScenarioConfig, provenance: dict, header, rows,
          out: str | None, fmt: str | None) -> None:
    fmt = fmt or config.output.format
    text = (_render_csv if fmt == "csv" else _render_json)(provenance, header, rows)
    path = out or config.output.path
    if path and path != "-":
        try:
            fh = open(path, "w", newline="\n", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write report {path}: {exc}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, BatchTrialError):
        return exit_code_for(exc.cause)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, NumericFailure):
        return EXIT_NUMERIC
    if isinstance(exc, PopulationOverflow):
        return EXIT_OVERFLOW
    return EXIT_OTHER


def _guarded(fn, config_path, out, fmt) -> int:
    try:
        config, provenance = _load_config(config_path)
        header, rows = fn(config, provenance)
        _emit(config, provenance, header, rows, out, fmt)
        return EXIT_OK
    except (BranchsimError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BatchTrialError):
            record["trial_index"] = exc.trial_index
            record["cause"] = type(exc.cause).__name__
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return exit_code_for(exc)


def run(config_path: str, out: str | None = None, threads: int = 1,
        fmt: str | None = None) -> int:
    """Execute a scenario config; returns the process exit code.

    ``threads`` is accepted for compatibility and changes nothing.
    """
    return _guarded(_execute, config_path, out, fmt)


def compare_criterion_vs_empirical(config_path: str, out: str | None = None,
                                   threads: int = 1, fmt: str | None = None) -> int:
    """Analytic divergence verdict vs empirical extinction, side by side."""
    return _guarded(_compare, config_path, out, fmt)


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="branchsim",
        description="Branching-process simulation experiments from JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run a scenario config"),
                            ("compare", "analytic criterion vs empirical extinction")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON scenario config")
        p.add_argument("--out", default=None,
                       help="output path, or - for stdout (default: the config's "
                            "path, else stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; trials run in one thread")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None,
                       help="override the config's output format")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out=args.out, threads=args.threads, fmt=args.fmt)
    return compare_criterion_vs_empirical(args.config, out=args.out,
                                          threads=args.threads, fmt=args.fmt)


if __name__ == "__main__":
    sys.exit(main())
