"""Scenario configs: a versioned JSON document describing one experiment.

The document selects an experiment (gw, controlled, phi, bisexual,
bcl_series, brs) and supplies the owning modules' sub-documents: offspring
law, control policy, mating function, claim population.  All randomness
flows from ``master_seed``; nothing reads the clock or OS entropy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import control as control_mod
from .bisexual import DaleyMonogamy, DaleyPolygamy, Min, _MatingStep
from .engine import DEFAULT_POPULATION_CAP
from .errors import ConfigError
from .law import Binomial, ExplicitPmf, Geometric, OffspringLaw, Poisson

if TYPE_CHECKING:  # the parsers below import brs only for a brs experiment
    from . import brs as brs_mod

SCHEMA_VERSION = 1
# the keys each experiment reads besides version, experiment, master_seed, trials and output
_RUN = {"horizon", "law", "initial_size", "population_cap", "coupled", "failure_budget",
        "sample_trajectories"}
KEYS = {"gw": _RUN | {"n_max"},
        "controlled": _RUN | {"n_max", "policy"},
        "phi": _RUN | {"n_max", "policy"},
        "bisexual": _RUN - {"initial_size", "coupled"} | {"alpha", "mating", "initial_units"},
        "bcl_series": _RUN | {"policy", "schedule"},
        "brs": {"population", "modes"}}
MAX_TRIALS = 10_000_000  # a run allocates and loops per trial and per generation,
MAX_HORIZON = 100_000    # so a config may ask for no more than these
MAX_SAMPLED_COUNTS = 10_000_000  # counts the sampled trajectories hold in all


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return doc[key]


def _as_int(value, context: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    v = int(value)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{context}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{context}: must be <= {maximum}, got {v}")
    return v


def _as_number(value, context: str) -> float:
    # json reads NaN and Infinity; NaN fails every comparison, and Python
    # compares an int past the float range with a float exactly
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _as_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list, got {value!r}")
    return value


def parse_law(doc) -> OffspringLaw:
    kind = _require(doc, "kind", "law")
    if kind == "explicit_pmf":
        pmf = _require(doc, "pmf", "law")
        if isinstance(pmf, dict):  # the keys of a json object are strings
            pmf = [[int(k) if str(k).isdecimal() else k, v] for k, v in pmf.items()]
        pairs = [_as_list(pair, "pmf pair") for pair in _as_list(pmf, "pmf")]
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigError("pmf: each pair must be [k, weight]")
        return ExplicitPmf([(_as_int(k, "pmf support point"), _as_number(w, f"pmf weight for k={k}"))
                            for k, w in pairs])
    if kind == "poisson":
        return Poisson(_as_number(_require(doc, "lambda", "poisson law"), "lambda"))
    if kind == "geometric":
        return Geometric(_as_number(_require(doc, "r", "geometric law"), "r"))
    if kind == "binomial":
        return Binomial(_as_int(_require(doc, "n", "binomial law"), "n", 1),
                        _as_number(_require(doc, "p", "binomial law"), "p"))
    raise ConfigError(f"law: unknown kind {kind!r}")


def parse_growth(doc) -> control_mod.GrowthFunction:
    form = _require(doc, "form", "growth function")
    if form == "constant":
        return control_mod.GrowthFunction.constant(_as_int(_require(doc, "c", "constant form"), "c", 0))
    if form == "log":
        return control_mod.GrowthFunction.log(
            _as_number(_require(doc, "a", "log form"), "a"),
            _as_number(_require(doc, "base", "log form"), "base"),
            doc.get("rounding", "floor"))
    if form == "linear":
        return control_mod.GrowthFunction.linear(
            _as_number(_require(doc, "a", "linear form"), "a"),
            _as_number(_require(doc, "c", "linear form"), "c"))
    if form == "table":
        return control_mod.GrowthFunction.from_table(
            [_as_int(v, "table entry") for v in _as_list(_require(doc, "values", "table form"),
                                                           "table form values")])
    raise ConfigError(f"growth function: unknown form {form!r}")


def parse_phi(doc) -> control_mod.Phi:
    form = _require(doc, "form", "phi")
    if form == "identity":
        return control_mod.Phi.identity()
    if form == "constant":
        return control_mod.Phi.constant(_as_int(_require(doc, "c", "phi constant"), "c", 0))
    if form == "linear":
        return control_mod.Phi.linear(_as_number(_require(doc, "a", "phi linear"), "a"),
                                      _as_number(_require(doc, "c", "phi linear"), "c"))
    if form == "table":
        return control_mod.Phi.from_table(
            [_as_int(v, "phi table entry", 0)
             for v in _as_list(_require(doc, "values", "phi table"), "phi table values")])
    raise ConfigError(f"phi: unknown form {form!r}")


def parse_delta(doc) -> control_mod.DisasterSchedule:
    form = _require(doc, "form", "disaster schedule")
    if form == "table":
        return control_mod.DisasterSchedule.from_table(
            [_as_number(v, "disaster probability")
             for v in _as_list(_require(doc, "values", "disaster table"), "disaster table values")])
    if form == "c_over_k":
        return control_mod.DisasterSchedule.c_over_k(_as_number(_require(doc, "c", "c/k schedule"), "c"))
    if form == "constant":
        return control_mod.DisasterSchedule.constant(_as_number(_require(doc, "c", "constant schedule"), "c"))
    raise ConfigError(f"disaster schedule: unknown form {form!r}")


def parse_absorbing_rule(doc):
    kind = _require(doc, "kind", "absorbing rule")
    if kind == "truncation_as_absorption":
        return control_mod.TruncationAsAbsorption(parse_growth(_require(doc, "g", "rule")))
    if kind == "disaster":
        return control_mod.Disaster(parse_delta(_require(doc, "delta", "disaster rule")))
    if kind == "lower_boundary":
        return control_mod.LowerBoundary(parse_growth(_require(doc, "b", "lower boundary rule")))
    raise ConfigError(f"absorbing rule: unknown kind {kind!r} "
                      "(custom rules are API-only)")


def parse_policy(doc):
    kind = _require(doc, "kind", "policy")
    if kind == "truncation":
        return control_mod.Truncation(parse_growth(_require(doc, "g", "truncation policy")))
    if kind == "absorbing":
        return parse_absorbing_rule(_require(doc, "rule", "absorbing policy"))
    if kind == "phi":
        return parse_phi(_require(doc, "phi", "phi policy"))
    raise ConfigError(f"policy: unknown kind {kind!r}")


def parse_mating(doc):
    kind = _require(doc, "kind", "mating function")
    if kind == "min":
        return Min()
    if kind == "daley_monogamy":
        return DaleyMonogamy()
    if kind == "daley_polygamy":
        return DaleyPolygamy(_as_int(_require(doc, "d", "polygamy"), "d", 1))
    raise ConfigError(f"mating function: unknown kind {kind!r} "
                      "(custom mating functions are API-only)")


def parse_claim_distribution(doc) -> brs_mod.ClaimDistribution:
    from . import brs as brs_mod
    kind = _require(doc, "kind", "claim distribution")
    if kind == "uniform":
        return brs_mod.Uniform(_as_number(_require(doc, "b", "uniform claims"), "b"))
    if kind == "exponential":
        return brs_mod.Exponential(_as_number(_require(doc, "rate", "exponential claims"), "rate"))
    raise ConfigError(f"claim distribution: unknown kind {kind!r} "
                      "(custom distributions are API-only)")


def parse_population(doc) -> brs_mod.Population:
    from . import brs as brs_mod
    groups = []
    for g in _as_list(_require(doc, "groups", "population"), "population groups"):
        count = _as_int(_require(g, "count", "population group"), "count", 1)
        dist = parse_claim_distribution(_require(g, "dist", "population group"))
        groups.append((count, dist))
    budget = _as_number(_require(doc, "budget", "population"), "budget")
    return brs_mod.Population(groups, budget)


@dataclass
class OutputSpec:
    format: str = "csv"
    path: str | None = None


@dataclass
class ScenarioConfig:
    """Validated experiment description; see ``from_dict`` for the schema."""

    version: int
    experiment: str
    master_seed: int
    trials: int
    horizon: int | None = None
    law: OffspringLaw | None = None
    policy: object | None = None
    alpha: float | None = None
    mating: object | None = None
    initial_units: int = 1
    initial_size: int = 1
    population_cap: int = DEFAULT_POPULATION_CAP
    coupled: bool = False
    failure_budget: int = 0
    sample_trajectories: int = 0
    population: brs_mod.Population | None = None
    modes: tuple[str, ...] = ("independent",)
    schedule: dict = field(default_factory=dict)
    n_max: int = 10_000
    output: OutputSpec = field(default_factory=OutputSpec)

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        version = _as_int(_require(doc, "version", "config"), "version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config version {version}; "
                              f"this artifact reads version {SCHEMA_VERSION}")
        experiment = _require(doc, "experiment", "config")
        if not isinstance(experiment, str) or experiment not in KEYS:
            raise ConfigError(f"unknown experiment {experiment!r}; "
                              f"expected one of {', '.join(KEYS)}")
        unread = doc.keys() - {"version", "experiment", "master_seed", "trials", "output"}
        unread -= KEYS[experiment]
        if unread:
            raise ConfigError(f"experiment {experiment!r} takes no {min(unread, key=str)}")
        master_seed = _as_int(_require(doc, "master_seed", "config"), "master_seed", 0)
        if master_seed >= 1 << 64:
            raise ConfigError(f"master_seed must fit in 64 bits, got {master_seed}")
        trials = _as_int(_require(doc, "trials", "config"), "trials", 1, MAX_TRIALS)

        cfg = ScenarioConfig(version=version, experiment=experiment,
                             master_seed=master_seed, trials=trials)
        for key, least in (("horizon", 1), ("initial_size", 0), ("initial_units", 0),
                           ("population_cap", 1), ("failure_budget", 0),
                           ("sample_trajectories", 0), ("n_max", 100)):
            if key in doc:
                setattr(cfg, key, _as_int(doc[key], key, least,
                                          MAX_HORIZON if key == "horizon" else None))
        if cfg.sample_trajectories > trials:
            raise ConfigError(f"sample_trajectories: must be <= trials, got "
                              f"{cfg.sample_trajectories} > {trials}")
        sampled = cfg.sample_trajectories * ((cfg.horizon or 0) + 1)
        if sampled > MAX_SAMPLED_COUNTS:
            raise ConfigError(f"sample_trajectories * (horizon + 1): must be <= "
                              f"{MAX_SAMPLED_COUNTS}, got {sampled}")
        if "coupled" in doc:
            if not isinstance(doc["coupled"], bool):
                raise ConfigError(f"coupled: expected a boolean, got {doc['coupled']!r}")
            cfg.coupled = doc["coupled"]
        if "output" in doc:
            out = doc["output"]
            if not isinstance(out, dict):
                raise ConfigError(f"output: expected an object, got {out!r}")
            fmt = out.get("format", "csv")
            if fmt not in ("csv", "json"):
                raise ConfigError(f"output format must be csv or json, got {fmt!r}")
            path = out.get("path")
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"output path must be a string, got {path!r}")
            cfg.output = OutputSpec(format=fmt, path=path)

        if "horizon" in KEYS[experiment] and cfg.horizon is None:
            raise ConfigError(f"experiment {experiment!r} requires a horizon")
        if "law" in KEYS[experiment]:
            cfg.law = parse_law(_require(doc, "law", "config"))
        if "policy" in doc:
            cfg.policy = parse_policy(doc["policy"])
        if experiment == "controlled" and (cfg.policy is None or
                                           isinstance(cfg.policy, control_mod.Phi)):
            raise ConfigError("controlled experiment requires a truncation "
                              "or absorbing policy")
        if experiment == "phi" and not isinstance(cfg.policy, control_mod.Phi):
            raise ConfigError("phi experiment requires a phi policy")
        if experiment == "bcl_series":
            sched = doc.get("schedule", {"family": "linear", "max_points": 50})
            if not isinstance(sched, dict):
                raise ConfigError(f"schedule: expected an object, got {sched!r}")
            if "values" in sched:
                values = [_as_int(v, "schedule value", 1)
                          for v in _as_list(sched["values"], "schedule values")]
                from .series import check_schedule
                try:
                    check_schedule(values, cfg.horizon)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
                cfg.schedule = {"values": values}
            else:
                family = sched.get("family", "linear")
                if family not in ("linear", "powers", "squares", "search"):
                    raise ConfigError(f"schedule family must be linear, powers, "
                                      f"squares or search, got {family!r}")
                cfg.schedule = {"family": family,
                                "max_points": _as_int(sched.get("max_points", 50),
                                                      "max_points", 2)}
        elif experiment == "bisexual":
            cfg.alpha = _as_number(_require(doc, "alpha", "config"), "alpha")
            cfg.mating = parse_mating(_require(doc, "mating", "config"))
            _MatingStep(cfg.alpha, cfg.mating)  # checks alpha
        elif experiment == "brs":
            cfg.population = parse_population(_require(doc, "population", "config"))
            modes = doc.get("modes", ["independent"])
            if (not isinstance(modes, list) or not modes
                    or any(m not in ("independent", "comonotone") for m in modes)):
                raise ConfigError(f"modes must be a nonempty list drawn from "
                                  f"independent/comonotone, got {modes!r}")
            cfg.modes = tuple(modes)
        return cfg
