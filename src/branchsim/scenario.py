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
from .law import INT64_MAX, Binomial, ExplicitPmf, Geometric, OffspringLaw, Poisson

if TYPE_CHECKING:  # the parsers below import brs only for a brs experiment
    from . import brs as brs_mod

SCHEMA_VERSION = 1
MAX_TRIALS = 10_000_000  # a run allocates and loops per trial and per generation,
MAX_HORIZON = 100_000    # so a config may ask for no more than these
MAX_DEGREE = INT64_MAX   # polygamy degree: it divides int64 counts


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return doc[key]


def _fields(doc, context: str, spec, tag=None) -> list:
    """The value of each ``(key, convert[, default])`` of ``spec``: ``convert(doc[key],
    key)``, or, when ``doc`` lacks the key, the default converted the same way (a
    default of None stays None).  A key of ``doc`` outside ``spec`` and ``tag``
    would change nothing, so it is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {doc!r}")
    unread = doc.keys() - {key for key, *_ in spec} - {tag}
    if unread:
        raise ConfigError(f"{context} takes no {min(unread, key=str)}")
    values = []
    for key, convert, *default in spec:
        if key in doc:
            values.append(convert(doc[key], key))
        elif not default:
            raise ConfigError(f"{context}: missing required key {key!r}")
        else:
            values.append(None if default[0] is None else convert(default[0], key))
    return values


def _named(doc, context: str, spec, tag=None) -> dict:
    """``_fields`` by key, without the keys whose value is None."""
    values = _fields(doc, context, spec, tag)
    return {key: value for (key, *_), value in zip(spec, values) if value is not None}


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


def _int(minimum=None, maximum=None):
    return lambda value, key: _as_int(value, key, minimum, maximum)


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


def _as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
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
_POLICIES = {"truncation": (Truncation, (("g", parse_growth),)),
             "absorbing": (_same, (("rule", parse_absorbing_rule),)),
             "phi": (_same, (("phi", parse_phi),))}
parse_policy = _read(_POLICIES, "policy", "kind")
_controlled_policy = _read({kind: _POLICIES[kind] for kind in ("truncation", "absorbing")},
                           "policy", "kind", " (a controlled experiment takes a truncation "
                           "or absorbing policy)")
_phi_policy = _read({"phi": _POLICIES["phi"]}, "policy", "kind",
                    " (a phi experiment takes a phi policy)")

parse_mating = _read({"min": (Min, ()), "daley_monogamy": (DaleyMonogamy, ()),
                      "daley_polygamy": (DaleyPolygamy, (("d", _int(1, MAX_DEGREE)),))},
                     "mating function", "kind", " (custom mating functions are API-only)")


def parse_population(doc, key=None) -> brs_mod.Population:
    from . import brs as brs_mod
    claims = _read({"uniform": (brs_mod.Uniform, (("b", _as_number),)),
                    "exponential": (brs_mod.Exponential, (("rate", _as_number),))},
                   "claim distribution", "kind", " (custom distributions are API-only)")
    group = (("count", _int(1)), ("dist", claims))
    groups, budget = _fields(doc, "population", (
        ("groups", _list_of(lambda g, key: tuple(_fields(g, "population group", group)))),
        ("budget", _as_number)))
    total = sum(count for count, _ in groups)
    if total > brs_mod.MAX_CLAIMS:
        raise ConfigError(f"population: must hold at most {brs_mod.MAX_CLAIMS} claims, got {total}")
    return brs_mod.Population(groups, budget)


def _as_modes(value, key) -> tuple[str, ...]:
    from .brs import MODES
    modes = tuple(_list_of(_one_of(*MODES))(value, key))
    if not modes:
        raise ConfigError(f"{key} must name at least one sampling mode")
    return modes


def _as_schedule(doc, key) -> dict:
    """Explicit ``values``, or a ``family`` of at most ``max_points`` points."""
    spec = ((("values", _list_of(_int(1))),) if isinstance(doc, dict) and "values" in doc
            else (("family", _one_of("linear", "powers", "squares", "search"), "linear"),
                  ("max_points", _int(2), 50)))
    return _named(doc, key, spec)


def _check_schedule(schedule: dict, horizon: int) -> None:
    from .series import _family_schedule, check_schedule
    if "values" in schedule:
        try:
            check_schedule(schedule["values"], horizon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    # a search that ranks no family keeps t_k = k, and t_1 = 1 always fits
    elif schedule["family"] != "search" and not _family_schedule(schedule["family"], horizon, 1):
        raise ConfigError(f"schedule family {schedule['family']} has no point inside "
                          f"horizon {horizon}")


def _as_version(value, key) -> int:
    if _as_int(value, key) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {value}; "
                          f"this artifact reads version {SCHEMA_VERSION}")
    return SCHEMA_VERSION


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None


def _as_output(doc, key) -> OutputSpec:
    return OutputSpec(**_named(doc, key, (("format", _one_of("csv", "json"), None),
                                          ("path", _as_path, None))))


# the keys each experiment reads: (key, convert) where the key is required, and
# (key, convert, None) where an absent key keeps ScenarioConfig's default
_COMMON = (("version", _as_version), ("master_seed", _int(0, (1 << 64) - 1)),
           ("trials", _int(1, MAX_TRIALS)), ("output", _as_output, None))
_RUN = _COMMON + (("horizon", _int(1, MAX_HORIZON)), ("law", parse_law),
                  ("population_cap", _int(1), None), ("failure_budget", _int(0), None))
_ONE_SEX = _RUN + (("initial_size", _int(0), None), ("coupled", _as_bool, None))
SPECS = {"gw": _ONE_SEX,
         "controlled": _ONE_SEX + (("policy", _controlled_policy),),
         "phi": _ONE_SEX + (("policy", _phi_policy),),
         "bisexual": _RUN + (("alpha", _as_number), ("mating", parse_mating),
                             ("initial_units", _int(0), None)),
         "bcl_series": _ONE_SEX + (("policy", parse_policy, None),
                                   ("schedule", _as_schedule, {})),
         "brs": _COMMON + (("population", parse_population), ("modes", _as_modes, None))}


@dataclass
class ScenarioConfig:
    """Validated experiment description; ``SPECS`` lists the keys of each experiment."""

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
    output: OutputSpec = OutputSpec()

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        experiment = _require(doc, "experiment", "config")
        if not isinstance(experiment, str) or experiment not in SPECS:
            raise ConfigError(f"unknown experiment {experiment!r}; "
                              f"expected one of {', '.join(SPECS)}")
        cfg = ScenarioConfig(experiment=experiment, **_named(
            doc, f"experiment {experiment!r}", SPECS[experiment], "experiment"))
        if experiment == "bisexual":
            _MatingStep(cfg.alpha, cfg.mating)  # checks alpha
        elif experiment == "bcl_series":
            _check_schedule(cfg.schedule, cfg.horizon)
        return cfg
