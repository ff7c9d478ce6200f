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

from .bisexual import DaleyMonogamy, DaleyPolygamy, Min, _MatingStep
from .control import (Disaster, DisasterSchedule, GrowthFunction, LowerBoundary, Phi,
                      Truncation, TruncationAsAbsorption)
from .engine import DEFAULT_POPULATION_CAP
from .errors import ConfigError
from .law import Binomial, ExplicitPmf, Geometric, OffspringLaw, Poisson

if TYPE_CHECKING:  # the parsers below import brs only for a brs experiment
    from . import brs as brs_mod

SCHEMA_VERSION = 1
# the keys each experiment reads besides version, experiment, master_seed, trials and output
_RUN = {"horizon", "law", "initial_size", "population_cap", "coupled", "failure_budget"}
KEYS = {"gw": _RUN,
        "controlled": _RUN | {"n_max", "policy"},
        "phi": _RUN | {"policy"},
        "bisexual": _RUN - {"initial_size", "coupled"} | {"alpha", "mating", "initial_units"},
        "bcl_series": _RUN | {"policy", "schedule"},
        "brs": {"population", "modes"}}
MAX_TRIALS = 10_000_000  # a run allocates and loops per trial and per generation,
MAX_HORIZON = 100_000    # so a config may ask for no more than these


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return doc[key]


def _fields(doc, context: str, spec, tag=None) -> list:
    """The value of each ``(key, convert[, default])`` of ``spec``: ``convert(doc[key],
    key)``, or the default when ``doc`` lacks the key.  A key of ``doc`` outside
    ``spec`` and ``tag`` would change nothing, so it is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {doc!r}")
    unread = doc.keys() - {key for key, *_ in spec} - {tag}
    if unread:
        raise ConfigError(f"{context} takes no {min(unread, key=str)}")
    values = []
    for key, convert, *default in spec:
        if key in doc:
            values.append(convert(doc[key], key))
        elif default:
            values.append(default[0])
        else:
            raise ConfigError(f"{context}: missing required key {key!r}")
    return values


def _read(kinds: dict, context: str, tag: str, hint: str = ""):
    """A parser of the sub-documents whose ``tag`` names their kind: ``kinds``
    maps each kind to ``(build, spec)``, and the parser returns ``build`` of the
    kind's ``_fields``.  It takes a converter's arguments, so a spec may name it."""
    def read(doc, key=None):
        kind = _require(doc, tag, context)
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{context}: unknown {tag} {kind!r}{hint}")
        build, spec = kinds[kind]
        return build(*_fields(doc, f"{context} {kind!r}", spec, tag))
    return read


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


def _int(minimum=None):
    return lambda value, key: _as_int(value, key, minimum)


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


def _list_of(convert):
    return lambda value, key: [convert(v, f"{key} entry") for v in _as_list(value, key)]


def _one_of(*choices):
    def convert(value, key):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        return value
    return convert


def _as_path(value, key):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _same(value, key=None):
    return value


def _as_pmf(value, key) -> list:
    if isinstance(value, dict):  # the keys of a json object are strings
        value = [[int(k) if str(k).isdecimal() else k, v] for k, v in value.items()]
    pairs = [_as_list(pair, "pmf pair") for pair in _as_list(value, key)]
    if any(len(pair) != 2 for pair in pairs):
        raise ConfigError("pmf: each pair must be [k, weight]")
    return [(_as_int(k, "pmf support point"), _as_number(w, f"pmf weight for k={k}"))
            for k, w in pairs]


parse_law = _read({"explicit_pmf": (ExplicitPmf, (("pmf", _as_pmf),)),
                   "poisson": (Poisson, (("lambda", _as_number),)),
                   "geometric": (Geometric, (("r", _as_number),)),
                   "binomial": (Binomial, (("n", _int(1)), ("p", _as_number)))},
                  "law", "kind")

parse_growth = _read({"constant": (GrowthFunction.constant, (("c", _int(0)),)),
                      "log": (GrowthFunction.log, (("a", _as_number), ("base", _as_number),
                                                   ("rounding", _same, "floor"))),
                      "linear": (GrowthFunction.linear, (("a", _as_number), ("c", _as_number))),
                      "table": (GrowthFunction.from_table, (("values", _list_of(_int())),))},
                     "growth function", "form")

parse_phi = _read({"identity": (Phi.identity, ()),
                   "constant": (Phi.constant, (("c", _int(0)),)),
                   "linear": (Phi.linear, (("a", _as_number), ("c", _as_number))),
                   "table": (Phi.from_table, (("values", _list_of(_int(0))),))},
                  "phi", "form")

parse_delta = _read({"table": (DisasterSchedule.from_table, (("values", _list_of(_as_number)),)),
                     "c_over_k": (DisasterSchedule.c_over_k, (("c", _as_number),)),
                     "constant": (DisasterSchedule.constant, (("c", _as_number),))},
                    "disaster schedule", "form")

parse_absorbing_rule = _read(
    {"truncation_as_absorption": (TruncationAsAbsorption, (("g", parse_growth),)),
     "disaster": (Disaster, (("delta", parse_delta),)),
     "lower_boundary": (LowerBoundary, (("b", parse_growth),))},
    "absorbing rule", "kind", " (custom rules are API-only)")

# an absorbing policy is its rule, and a phi policy its phi
parse_policy = _read({"truncation": (Truncation, (("g", parse_growth),)),
                      "absorbing": (_same, (("rule", parse_absorbing_rule),)),
                      "phi": (_same, (("phi", parse_phi),))},
                     "policy", "kind")

parse_mating = _read({"min": (Min, ()), "daley_monogamy": (DaleyMonogamy, ()),
                      "daley_polygamy": (DaleyPolygamy, (("d", _int(1)),))},
                     "mating function", "kind", " (custom mating functions are API-only)")


def parse_population(doc) -> brs_mod.Population:
    from . import brs as brs_mod
    claims = _read({"uniform": (brs_mod.Uniform, (("b", _as_number),)),
                    "exponential": (brs_mod.Exponential, (("rate", _as_number),))},
                   "claim distribution", "kind", " (custom distributions are API-only)")
    group = (("count", _int(1)), ("dist", claims))
    groups, budget = _fields(doc, "population", (
        ("groups", _list_of(lambda g, key: tuple(_fields(g, "population group", group)))),
        ("budget", _as_number)))
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
                           ("population_cap", 1), ("failure_budget", 0), ("n_max", 100)):
            if key in doc:
                setattr(cfg, key, _as_int(doc[key], key, least,
                                          MAX_HORIZON if key == "horizon" else None))
        if "coupled" in doc:
            if not isinstance(doc["coupled"], bool):
                raise ConfigError(f"coupled: expected a boolean, got {doc['coupled']!r}")
            cfg.coupled = doc["coupled"]
        if "output" in doc:
            cfg.output = OutputSpec(*_fields(doc["output"], "output", (
                ("format", _one_of("csv", "json"), "csv"), ("path", _as_path, None))))

        if "horizon" in KEYS[experiment] and cfg.horizon is None:
            raise ConfigError(f"experiment {experiment!r} requires a horizon")
        if "law" in KEYS[experiment]:
            cfg.law = parse_law(_require(doc, "law", "config"))
        if "policy" in doc:
            cfg.policy = parse_policy(doc["policy"])
        if experiment == "controlled" and (cfg.policy is None or isinstance(cfg.policy, Phi)):
            raise ConfigError("controlled experiment requires a truncation "
                              "or absorbing policy")
        if "n_max" in doc and not (isinstance(cfg.policy, (Truncation, TruncationAsAbsorption))
                                   and cfg.policy.g.form == "table"):
            # compare's series verdict is exact for a symbolic g whatever n_max is
            raise ConfigError("n_max is read only by the series verdict of a truncation "
                              "policy with a table g")
        if experiment == "phi" and not isinstance(cfg.policy, Phi):
            raise ConfigError("phi experiment requires a phi policy")
        if experiment == "bcl_series":
            from .series import _family_schedule, check_schedule
            sched = doc.get("schedule", {})
            if isinstance(sched, dict) and "values" in sched:
                values = _fields(sched, "schedule", (("values", _list_of(_int(1))),))[0]
                try:
                    check_schedule(values, cfg.horizon)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
                cfg.schedule = {"values": values}
            else:
                family, max_points = _fields(sched, "schedule", (
                    ("family", _one_of("linear", "powers", "squares", "search"), "linear"),
                    ("max_points", _int(2), 50)))
                # a search that ranks no family keeps t_k = k, and t_1 = 1 always fits
                if family != "search" and not _family_schedule(family, cfg.horizon, 1):
                    raise ConfigError(f"schedule family {family} has no point inside "
                                      f"horizon {cfg.horizon}")
                cfg.schedule = {"family": family, "max_points": max_points}
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
