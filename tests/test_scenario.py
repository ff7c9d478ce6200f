"""Scenario document parsing: schema checks and sub-document dispatch."""

from __future__ import annotations

import re

import pytest

from branchsim import (
    Binomial,
    ConfigError,
    DaleyPolygamy,
    Disaster,
    ExplicitPmf,
    Geometric,
    LowerBoundary,
    Min,
    Phi,
    Poisson,
    ScenarioConfig,
    Truncation,
    TruncationAsAbsorption,
)
from branchsim.engine import DEFAULT_POPULATION_CAP
from branchsim.scenario import (
    MAX_HORIZON,
    MAX_TRIALS,
    parse_growth,
    parse_law,
    parse_mating,
    parse_phi,
    parse_policy,
    parse_population,
)


def gw_doc(**extra):
    doc = {"version": 1, "experiment": "gw", "master_seed": 7, "trials": 10,
           "horizon": 5, "law": {"kind": "geometric", "r": 0.4}}
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------- law

def test_parse_law_kinds():
    pmf = parse_law({"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}})
    assert isinstance(pmf, ExplicitPmf)
    assert pmf.p0 == pytest.approx(0.25)
    pairs = parse_law({"kind": "explicit_pmf", "pmf": [[0, 1], [3, 3]]})
    assert pairs.atoms == ((0, 0.25), (3, 0.75))
    poi = parse_law({"kind": "poisson", "lambda": 1.5})
    assert isinstance(poi, Poisson) and poi.lam == 1.5
    geo = parse_law({"kind": "geometric", "r": 0.6})
    assert isinstance(geo, Geometric) and geo.r == 0.6
    binom = parse_law({"kind": "binomial", "n": 2, "p": 0.5})
    assert isinstance(binom, Binomial) and (binom.n, binom.p) == (2, 0.5)


def test_parse_law_rejects_bad_documents():
    with pytest.raises(ConfigError):
        parse_law("poisson")
    with pytest.raises(ConfigError):
        parse_law({"kind": "zeta", "s": 2})
    with pytest.raises(ConfigError):
        parse_law({"kind": "poisson"})
    with pytest.raises(ConfigError):
        parse_law({"kind": "binomial", "n": 2.5, "p": 0.5})


# ----------------------------------------------------- policy sub-documents

def test_parse_growth_forms():
    assert parse_growth({"form": "constant", "c": 3})(100) == 3
    g = parse_growth({"form": "log", "a": 2.0, "base": 3.0})
    assert g.rounding == "floor"
    g_ceil = parse_growth({"form": "log", "a": 2.0, "base": 3.0,
                           "rounding": "ceil"})
    assert g_ceil(10) >= g(10)
    lin = parse_growth({"form": "linear", "a": 1.0, "c": 2.0})
    assert lin(5) == 7
    tab = parse_growth({"form": "table", "values": [1, 4, 9]})
    assert (tab(0), tab(2), tab(50)) == (1, 9, 9)
    with pytest.raises(ConfigError):
        parse_growth({"form": "cubic", "a": 1.0})
    with pytest.raises(ConfigError):
        parse_growth([1, 2, 3])


def test_parse_phi_forms():
    ident = parse_phi({"form": "identity"})
    assert ident(7) == 7 and isinstance(ident, Phi) and ident.form == "identity"
    const = parse_phi({"form": "constant", "c": 2})
    assert const(100) == 2
    lin = parse_phi({"form": "linear", "a": 2.0, "c": 1.0})
    assert lin(3) == 7
    tab = parse_phi({"form": "table", "values": [5, 1, 0]})
    assert (tab(0), tab(2), tab(9)) == (5, 0, 0)
    with pytest.raises(ConfigError):
        parse_phi({"form": "table", "values": []})
    with pytest.raises(ConfigError):
        parse_phi({"form": "quadratic"})


def test_parse_policy_kinds():
    trunc = parse_policy({"kind": "truncation", "g": {"form": "constant", "c": 3}})
    assert isinstance(trunc, Truncation)
    absorbing = parse_policy({"kind": "absorbing", "rule": {
        "kind": "disaster", "delta": {"form": "c_over_k", "c": 1.0}}})
    assert isinstance(absorbing, Disaster)
    boundary = parse_policy({"kind": "absorbing", "rule": {
        "kind": "lower_boundary", "b": {"form": "constant", "c": 2}}})
    assert isinstance(boundary, LowerBoundary)
    as_absorption = parse_policy({"kind": "absorbing", "rule": {
        "kind": "truncation_as_absorption", "g": {"form": "linear", "a": 1.0, "c": 0.0}}})
    assert isinstance(as_absorption, TruncationAsAbsorption)
    phi = parse_policy({"kind": "phi", "phi": {"form": "identity"}})
    assert isinstance(phi, Phi)
    with pytest.raises(ConfigError, match=re.escape("unknown kind 'custom' (custom rules are "
                                                    "API-only)")):
        parse_policy({"kind": "absorbing", "rule": {"kind": "custom"}})
    with pytest.raises(ConfigError):
        parse_policy({"kind": "resampling"})


def test_parse_mating_kinds():
    assert isinstance(parse_mating({"kind": "min"}), Min)
    poly = parse_mating({"kind": "daley_polygamy", "d": 3})
    assert isinstance(poly, DaleyPolygamy) and poly.d == 3
    with pytest.raises(ConfigError, match=re.escape("(custom mating functions are API-only)")):
        parse_mating({"kind": "custom"})
    with pytest.raises(ConfigError):
        parse_mating({"kind": "daley_polygamy", "d": 0})


def test_parse_population():
    pop = parse_population({"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}},
                                       {"count": 3, "dist": {"kind": "exponential", "rate": 2.0}}],
                            "budget": 1.5})
    assert pop.total_count == 5 and pop.s == 1.5
    with pytest.raises(ConfigError):
        parse_population({"groups": [], "budget": 1.0})
    with pytest.raises(ConfigError):
        parse_population({"groups": [{"count": 1, "dist": {"kind": "pareto", "a": 2}}],
                          "budget": 1.0})


# ------------------------------------------------------------- whole config

def test_minimal_gw_config_and_defaults():
    cfg = ScenarioConfig.from_dict(gw_doc())
    assert cfg.experiment == "gw"
    assert isinstance(cfg.law, Geometric)
    assert cfg.policy is None
    assert cfg.initial_size == 1
    assert cfg.population_cap == DEFAULT_POPULATION_CAP
    assert cfg.coupled is False
    assert cfg.failure_budget == 0
    assert cfg.output.format == "csv" and cfg.output.path is None


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("version"),
    lambda d: d.update(version=2),
    lambda d: d.update(version=True),
    lambda d: d.update(experiment="galton"),
    lambda d: d.pop("master_seed"),
    lambda d: d.update(master_seed=-1),
    lambda d: d.update(master_seed=1 << 64),
    lambda d: d.update(trials=0),
    lambda d: d.update(trials=True),
    lambda d: d.update(trials=10.5),
    lambda d: d.pop("horizon"),
    lambda d: d.pop("law"),
    lambda d: d.update(policy={"kind": "truncation", "g": {"form": "constant", "c": 3}}),
    lambda d: d.update(coupled="yes"),
    # coupled runs nothing differently in these experiments
    lambda d: d.update(experiment="bisexual", alpha=0.5, mating={"kind": "min"}, coupled=True),
    lambda d: d.update(experiment="brs", coupled=True, population={
        "budget": 1.0, "groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}]}),
    lambda d: d.update(output={"format": "xml"}),
    # a path, rounding or family that is no string is not coerced into one
    lambda d: d.update(output={"path": 5}),
    lambda d: d.update(experiment="controlled", policy={"kind": "truncation", "g": {
        "form": "log", "a": 2.0, "base": 3.0, "rounding": ["ceil"]}}),
    lambda d: d.update(experiment="bcl_series", schedule={"family": 5}),
    # each experiment starts from one initial key: a misplaced one is not ignored
    lambda d: d.update(initial_units=50),
    lambda d: d.update(experiment="bisexual", alpha=0.5, mating={"kind": "min"}, initial_size=50),
    lambda d: d.update(experiment="brs", initial_size=2, population={
        "budget": 1.0, "groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}]}),
])
def test_gw_config_rejections(mutate):
    doc = gw_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(doc)


BRS_DOC = {"version": 1, "experiment": "brs", "master_seed": 1, "trials": 10,
           "population": {"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}],
                          "budget": 1.0}}
BISEXUAL = {"experiment": "bisexual", "alpha": 0.5, "mating": {"kind": "min"}}


@pytest.mark.parametrize("doc, key", [
    (gw_doc(**BISEXUAL, policy={"kind": "truncation", "g": {"form": "constant", "c": 3}}),
     "policy"),
    (gw_doc(**BISEXUAL, coupled=False), "coupled"),
    ({**BRS_DOC, "horizon": 5}, "horizon"),
    (gw_doc(schedule={"values": [1, 2]}), "schedule"),
    (gw_doc(experiment="bcl_series", n_max=200), "n_max"),
    (gw_doc(failure_budgt=3), "failure_budgt"),
    (gw_doc(n_max=200), "n_max"),
    (gw_doc(experiment="phi", policy={"kind": "phi", "phi": {"form": "identity"}}, n_max=200),
     "n_max"),
    # compare's series verdict is exact for every g a config can name
    (gw_doc(experiment="controlled", policy={"kind": "truncation", "g": {
        "form": "table", "values": [1, 4, 9]}}, n_max=200), "n_max"),
], ids=["bisexual_policy", "bisexual_coupled", "brs_horizon", "gw_schedule", "bcl_series_n_max",
        "misspelt_failure_budget", "gw_n_max", "phi_n_max", "controlled_n_max"])
def test_each_experiment_rejects_the_keys_it_does_not_read(doc, key):
    # a valid key that an experiment never reads changes nothing, so it is an error
    with pytest.raises(ConfigError, match=f"^experiment '{doc['experiment']}' takes no {key}$"):
        ScenarioConfig.from_dict(doc)
    rest = {k: v for k, v in doc.items() if k != key}
    assert ScenarioConfig.from_dict(rest).experiment == doc["experiment"]


def controlled(policy):
    return gw_doc(experiment="controlled", policy=policy)


LOG = {"form": "log", "a": 2.0, "base": 3.0}
POPULATION = {"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}], "budget": 1.0}
TABLE = {"form": "table", "values": [1, 4, 9]}


@pytest.mark.parametrize("policy", [
    {"kind": "truncation", "g": LOG},
    {"kind": "truncation", "g": {"form": "constant", "c": 3}},
    {"kind": "absorbing", "rule": {"kind": "truncation_as_absorption", "g": LOG}},
    {"kind": "absorbing", "rule": {"kind": "disaster", "delta": {"form": "constant", "c": 0.5}}},
    {"kind": "absorbing", "rule": {"kind": "lower_boundary", "b": TABLE}},
    {"kind": "truncation", "g": TABLE},
    {"kind": "absorbing", "rule": {"kind": "truncation_as_absorption", "g": TABLE}},
], ids=["log_truncation", "constant_truncation", "log_as_absorption", "disaster",
        "table_lower_boundary", "table_truncation", "table_as_absorption"])
def test_n_max_is_a_config_error_where_no_series_verdict_reads_it(policy):
    # every g a config can name, a table included, has an exact verdict, and other
    # rules have none, so no controlled policy reads n_max
    with pytest.raises(ConfigError, match="^experiment 'controlled' takes no n_max$"):
        ScenarioConfig.from_dict({**controlled(policy), "n_max": 200})
    cfg = ScenarioConfig.from_dict(controlled(policy))
    assert cfg.experiment == "controlled" and not hasattr(cfg, "n_max")


@pytest.mark.parametrize("doc, path, key, context", [
    (gw_doc(law={"kind": "poisson", "lambda": 1.5, "r": 0.4}), ("law",), "r", "law 'poisson'"),
    (controlled({"kind": "truncation", "g": {**LOG, "roundng": "ceil"}}), ("policy", "g"),
     "roundng", "growth function 'log'"),
    (gw_doc(experiment="phi", policy={"kind": "phi", "phi": {"form": "identity", "c": 2}}),
     ("policy", "phi"), "c", "phi 'identity'"),
    (controlled({"kind": "absorbing", "rule": {"kind": "disaster", "delta": {
        "form": "c_over_k", "c": 0.5, "values": [0.1]}}}), ("policy", "rule", "delta"), "values",
     "disaster schedule 'c_over_k'"),
    (controlled({"kind": "absorbing", "rule": {"kind": "disaster", "g": LOG, "delta": {
        "form": "constant", "c": 0.5}}}), ("policy", "rule"), "g", "absorbing rule 'disaster'"),
    (controlled({"kind": "truncation", "g": LOG, "rule": {"kind": "lower_boundary"}}),
     ("policy",), "rule", "policy 'truncation'"),
    (gw_doc(**{**BISEXUAL, "mating": {"kind": "min", "d": 2}}), ("mating",), "d",
     "mating function 'min'"),
    ({**BRS_DOC, "population": {**POPULATION, "groups": [
        {"count": 2, "dist": {"kind": "uniform", "b": 1.0, "rate": 2.0}}]}},
     ("population", "groups", 0, "dist"), "rate", "claim distribution 'uniform'"),
    ({**BRS_DOC, "population": {**POPULATION, "budgt": 2.0}}, ("population",), "budgt",
     "population"),
    ({**BRS_DOC, "population": {**POPULATION, "groups": [
        {"count": 2, "weight": 0.5, "dist": {"kind": "uniform", "b": 1.0}}]}},
     ("population", "groups", 0), "weight", "population group"),
    (gw_doc(experiment="bcl_series", schedule={"values": [1, 2], "family": "powers"}),
     ("schedule",), "family", "schedule"),
    (gw_doc(experiment="bcl_series", schedule={"family": "powers", "max_point": 3}),
     ("schedule",), "max_point", "schedule"),
    (gw_doc(output={"fromat": "json"}), ("output",), "fromat", "output"),
], ids=["law", "growth", "phi", "delta", "rule", "policy", "mating", "claims", "population",
        "group", "schedule_values", "schedule_family", "output"])
def test_each_sub_document_rejects_the_keys_it_does_not_read(doc, path, key, context):
    # a misspelt optional key would take its default, and any other changes nothing
    with pytest.raises(ConfigError, match=f"^{re.escape(context)} takes no {key}$"):
        ScenarioConfig.from_dict(doc)
    sub = doc
    for step in path:
        sub = sub[step]
    del sub[key]
    ScenarioConfig.from_dict(doc)


def test_a_non_string_experiment_is_a_config_error():
    for experiment in (["gw"], {"gw": 1}, 1, None):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ScenarioConfig.from_dict(gw_doc(experiment=experiment))


def test_run_sizes_are_bounded_at_parse_time():
    # parsed only: no config here is ever run
    at_bounds = ScenarioConfig.from_dict(gw_doc(trials=MAX_TRIALS, horizon=MAX_HORIZON))
    assert (at_bounds.trials, at_bounds.horizon) == (MAX_TRIALS, MAX_HORIZON)
    # no report writes sampled trajectories, so a JSON config asks for none
    unread = "^experiment 'gw' takes no sample_trajectories$"
    brs = {"version": 1, "experiment": "brs", "master_seed": 1, "trials": MAX_TRIALS + 1,
           "population": {"groups": [{"count": 1, "dist": {"kind": "uniform", "b": 1.0}}],
                          "budget": 0.5}}
    bisexual = gw_doc(experiment="bisexual", horizon=MAX_HORIZON + 1, alpha=0.5,
                      mating={"kind": "min"})
    for doc, message in ((gw_doc(trials=MAX_TRIALS + 1), f"trials: must be <= {MAX_TRIALS}"),
                         (gw_doc(horizon=MAX_HORIZON + 1), f"horizon: must be <= {MAX_HORIZON}"),
                         (brs, "trials: must be <="), (bisexual, "horizon: must be <="),
                         (gw_doc(trials=10, sample_trajectories=11), unread),
                         (gw_doc(trials=MAX_TRIALS, horizon=MAX_HORIZON,
                                 sample_trajectories=100), unread),
                         (gw_doc(trials=10, sample_trajectories=10), unread),
                         ({**bisexual, "horizon": 5, "sample_trajectories": 10},
                          "^experiment 'bisexual' takes no sample_trajectories$")):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(doc)


def test_controlled_experiment_policy_matrix():
    doc = gw_doc(experiment="controlled",
                 policy={"kind": "truncation", "g": {"form": "constant", "c": 3}})
    cfg = ScenarioConfig.from_dict(doc)
    assert isinstance(cfg.policy, Truncation)
    doc["policy"] = {"kind": "absorbing", "rule": {
        "kind": "lower_boundary", "b": {"form": "constant", "c": 2}}}
    assert isinstance(ScenarioConfig.from_dict(doc).policy, LowerBoundary)
    with pytest.raises(ConfigError):  # controlled needs truncation or absorbing
        ScenarioConfig.from_dict(gw_doc(experiment="controlled"))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(gw_doc(
            experiment="controlled",
            policy={"kind": "phi", "phi": {"form": "identity"}}))


def test_phi_experiment_requires_phi_policy():
    cfg = ScenarioConfig.from_dict(gw_doc(
        experiment="phi", policy={"kind": "phi", "phi": {"form": "identity"}}))
    assert isinstance(cfg.policy, Phi)
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(gw_doc(experiment="phi"))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(gw_doc(
            experiment="phi",
            policy={"kind": "truncation", "g": {"form": "constant", "c": 3}}))


def test_bisexual_config():
    doc = {"version": 1, "experiment": "bisexual", "master_seed": 3,
           "trials": 10, "horizon": 5, "initial_units": 2,
           "law": {"kind": "poisson", "lambda": 2.0}, "alpha": 0.5,
           "mating": {"kind": "min"}}
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.alpha == 0.5 and isinstance(cfg.mating, Min)
    assert cfg.initial_units == 2
    for bad_alpha in (0.0, 1.0, -0.2):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**doc, "alpha": bad_alpha})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({k: v for k, v in doc.items() if k != "mating"})


def test_bcl_series_schedule_forms():
    base = gw_doc(experiment="bcl_series")
    cfg = ScenarioConfig.from_dict(base)
    assert cfg.schedule == {"family": "linear", "max_points": 50}
    cfg = ScenarioConfig.from_dict(gw_doc(experiment="bcl_series",
                                          schedule={"values": [1, 2, 4]}))
    assert cfg.schedule == {"values": [1, 2, 4]}
    cfg = ScenarioConfig.from_dict(gw_doc(experiment="bcl_series",
                                          schedule={"family": "search",
                                                    "max_points": 8}))
    assert cfg.schedule == {"family": "search", "max_points": 8}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(gw_doc(experiment="bcl_series",
                                        schedule={"family": "fibonacci"}))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(gw_doc(experiment="bcl_series",
                                        schedule={"max_points": 1}))
    # t_1 = 2 lies past a horizon of 1: the batch would run for a report it cannot write
    with pytest.raises(ConfigError, match="^schedule family powers has no point inside horizon 1$"):
        ScenarioConfig.from_dict(gw_doc(experiment="bcl_series", horizon=1,
                                        schedule={"family": "powers"}))
    for family in ("linear", "squares", "search"):
        assert ScenarioConfig.from_dict(gw_doc(experiment="bcl_series", horizon=1, schedule={
            "family": family})).schedule == {"family": family, "max_points": 50}


def test_brs_config():
    doc = {"version": 1, "experiment": "brs", "master_seed": 11, "trials": 100,
           "population": {"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}],
                          "budget": 0.25},
           "modes": ["independent", "comonotone"]}
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.population.total_count == 2
    assert cfg.modes == ("independent", "comonotone")
    assert cfg.horizon is None  # brs has no generational horizon
    default = ScenarioConfig.from_dict({k: v for k, v in doc.items() if k != "modes"})
    assert default.modes == ("independent",)
    for bad in ([], ["bootstrap"], "independent"):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**doc, "modes": bad})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({k: v for k, v in doc.items() if k != "population"})


def test_output_spec_parsing():
    cfg = ScenarioConfig.from_dict(gw_doc(output={"format": "json",
                                                  "path": "out.json"}))
    assert cfg.output.format == "json" and cfg.output.path == "out.json"
