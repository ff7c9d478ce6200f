"""Command-line front end: outputs, provenance, determinism, exit codes."""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

import branchsim
from branchsim import (
    BatchTrialError,
    ConfigError,
    NumericFailure,
    PopulationOverflow,
)
from branchsim import cli


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def gw_doc(**extra):
    doc = {"version": 1, "experiment": "gw", "master_seed": 5, "trials": 300,
           "horizon": 40, "law": {"kind": "geometric", "r": 0.4}}
    doc.update(extra)
    return doc


def controlled_doc(**extra):
    doc = {"version": 1, "experiment": "controlled", "master_seed": 9,
           "trials": 500, "horizon": 300,
           "law": {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}},
           "policy": {"kind": "truncation", "g": {"form": "constant", "c": 3}}}
    doc.update(extra)
    return doc


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


# ------------------------------------------------------------------ outputs

def test_run_gw_writes_provenance_and_header(tmp_path):
    cfg = write_config(tmp_path, gw_doc())
    out = tmp_path / "report.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert lines[0] == f"# config_sha256={digest},master_seed=5,artifact_version=" + \
        cli.__version__
    assert lines[1] == "generation,extinct_fraction,mean_size_given_survival"
    assert len(lines) == 2 + 40 + 1  # provenance, header, generations 0..40
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 1.0


def test_run_bisexual_header(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "bisexual", "master_seed": 3, "trials": 200,
        "horizon": 30, "law": {"kind": "poisson", "lambda": 2.0},
        "alpha": 0.5, "mating": {"kind": "min"}})
    out = tmp_path / "bis.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[1] == "generation,extinct_fraction,mean_units_given_survival"


def test_run_series_with_explicit_and_searched_schedules(tmp_path):
    base = {"version": 1, "experiment": "bcl_series", "master_seed": 11,
            "trials": 400, "horizon": 64,
            "law": {"kind": "geometric", "r": 0.4}}
    explicit = write_config(tmp_path, {**base, "schedule": {"values": [1, 2, 4]}},
                            "explicit.json")
    out = tmp_path / "series.csv"
    assert cli.run(str(explicit), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[1] == "k,t_k,p_marginal,p_conditional,partial_sum"
    assert [line.split(",")[1] for line in lines[2:]] == ["1", "2", "4"]

    searched = write_config(tmp_path, {**base, "schedule": {"family": "search",
                                                            "max_points": 5}},
                            "searched.json")
    assert cli.run(str(searched), out=str(out)) == 0
    assert len(read_lines(out)) == 2 + 5


def test_run_brs_reports_bound_and_modes(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "brs", "master_seed": 2, "trials": 2000,
        "population": {"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}],
                       "budget": 0.25},
        "modes": ["independent", "comonotone"]})
    out = tmp_path / "brs.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[1] == "s,t,bound,estimate,halfwidth,mode"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[5] for r in rows] == ["independent", "comonotone"]
    for r in rows:
        assert float(r[0]) == 0.25
        assert float(r[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(r[2]) == pytest.approx(1.0, abs=1e-10)


def test_brs_budget_of_1e_300_runs(tmp_path):
    # 7 Uniform(1) claims: 7 t^2 / 2 = s gives t = sqrt(2 s / 7)
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "brs", "master_seed": 1, "trials": 10,
        "population": {"groups": [{"count": 7, "dist": {"kind": "uniform", "b": 1.0}}],
                       "budget": 1e-300}})
    out = tmp_path / "tiny.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    row = read_lines(out)[2].split(",")
    assert float(row[1]) == pytest.approx(math.sqrt(2e-300 / 7.0), rel=1e-15)
    assert float(row[3]) == 0.0


def test_degenerate_brs_budget_renders_nan_threshold(tmp_path):
    doc = {"version": 1, "experiment": "brs", "master_seed": 2, "trials": 100,
           "population": {"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}],
                          "budget": 5.0}}
    cfg = write_config(tmp_path, doc)
    out_csv = tmp_path / "deg.csv"
    assert cli.run(str(cfg), out=str(out_csv)) == 0
    row = read_lines(out_csv)[2].split(",")
    assert row[1] == "nan" and float(row[2]) == 2.0

    out_json = tmp_path / "deg.json"
    assert cli.run(str(cfg), out=str(out_json), fmt="json") == 0
    doc_out = json.loads(out_json.read_text(encoding="utf-8"))
    t_index = doc_out["columns"].index("t")
    assert doc_out["rows"][0][t_index] is None  # NaN has no JSON encoding


def test_json_format_structure(tmp_path):
    cfg = write_config(tmp_path, gw_doc(output={"format": "json"}))
    out = tmp_path / "report.json"
    assert cli.run(str(cfg), out=str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"provenance", "columns", "rows"}
    assert doc["columns"][0] == "generation"
    assert doc["provenance"]["master_seed"] == 5
    assert len(doc["rows"]) == 41


def fmt_cell(value):
    """``cli._fmt`` as every report cell was formatted before columns were."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def cell_by_cell_csv(provenance, header, rows):
    """The CSV renderer as it was before it rendered by column: one ``_fmt``
    call per cell."""
    lines = ["# " + ",".join(f"{k}={v}" for k, v in provenance.items()), ",".join(header)]
    lines += (",".join(fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_csv_columns_render_each_cell_as_its_own_format():
    # a float column formats each distinct value once, and 0.0 == -0.0
    nan = math.nan
    columns = {
        "repeated": [0.1, 0.25, 0.1, 0.1, 1 / 3, 0.25, 0.1],
        "zeros": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0],
        "negative_zero_first": [-0.0, 0.0, 2.5, -0.0, 2.5, 0.0, -0.0],
        "special": [nan, float("nan"), math.inf, -math.inf, nan, 0.0, -0.0],
        "tiny": [5e-324, 1e-300, 5e-324, -5e-324, 1e300, 0.0, -0.0],
        "ints": [1, 2, 2, 3, 2**70, -4, 0],
        "bools": [True, False, True, True, False, False, True],
        "one_and_one_point_zero": [1, 1.0, 1, 1.0, 2, 2.0, 0],
        "optional": [None, 0.5, None, 0.5, 0.0, -0.0, None],
    }
    rows = [list(row) for row in zip(*columns.values())]
    provenance = {"config_sha256": "0" * 64, "master_seed": 1}
    text = cli._render_csv(provenance, list(columns), rows)
    assert text == cell_by_cell_csv(provenance, list(columns), rows)
    assert [line.split(",")[1] for line in text.splitlines()[2:]] == [
        "0.0", "-0.0", "0.0", "-0.0", "-0.0", "0.0", "0.0"]


BRS_DOC = {"version": 1, "experiment": "brs", "master_seed": 2, "trials": 200,
           "modes": ["independent", "comonotone"],
           "population": {"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}}],
                          "budget": 0.25}}
FAILING = {"master_seed": 1, "trials": 10, "horizon": 5, "population_cap": 1,
           "failure_budget": 10, "law": {"kind": "explicit_pmf", "pmf": {"2": 1}}}
REPORTS = {
    "run_gw": ("run", gw_doc()),
    "run_controlled": ("run", controlled_doc(horizon=2000)),
    "run_bisexual": ("run", {"version": 1, "experiment": "bisexual", "master_seed": 3,
                             "trials": 200, "horizon": 30, "initial_units": 4,
                             "law": {"kind": "poisson", "lambda": 2.2}, "alpha": 0.5,
                             "mating": {"kind": "min"}}),
    "run_failing": ("run", gw_doc(**FAILING)),  # nan columns and failed_trials
    "compare_controlled": ("compare", controlled_doc()),
    "compare_without_policy": ("compare", gw_doc()),  # empty verdict and exponent
    "compare_failing": ("compare", gw_doc(**FAILING)),
    "brs": ("run", BRS_DOC),
    "brs_degenerate": ("run", {**BRS_DOC, "population": {**BRS_DOC["population"],
                                                         "budget": 5.0}}),  # t = nan
    "bcl_series": ("run", {"version": 1, "experiment": "bcl_series", "master_seed": 11,
                           "trials": 300, "horizon": 40, "law": {"kind": "geometric", "r": 0.4},
                           "schedule": {"family": "search", "max_points": 6}}),
    "bcl_series_failing": ("run", {**gw_doc(**FAILING), "experiment": "bcl_series"}),
}


@pytest.mark.parametrize("name", REPORTS)
def test_csv_rendered_by_column_is_the_cell_by_cell_rendering(tmp_path, name):
    command, doc = REPORTS[name]
    config, provenance = cli._load_config(str(write_config(tmp_path, doc)))
    header, rows = (cli._execute if command == "run" else cli._compare)(config, provenance)
    assert cli._render_csv(provenance, header, rows) == cell_by_cell_csv(provenance, header, rows)


def test_format_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, gw_doc())  # config default is csv
    out = tmp_path / "forced.json"
    assert cli.run(str(cfg), out=str(out), fmt="json") == 0
    json.loads(out.read_text(encoding="utf-8"))


def test_stdout_when_no_output_path(tmp_path, capsys):
    cfg = write_config(tmp_path, gw_doc(trials=50, horizon=5))
    assert cli.run(str(cfg)) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0].startswith("# config_sha256=")
    assert captured[1] == "generation,extinct_fraction,mean_size_given_survival"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_out_dash_writes_the_file_bytes_to_stdout(tmp_path, monkeypatch, capsys, command):
    cfg = write_config(tmp_path, controlled_doc(trials=50, horizon=10))
    out = tmp_path / "report.csv"
    assert cli.main([command, str(cfg), "--out", str(out)]) == 0
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    assert cli.main([command, str(cfg), "--out", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    assert not (work / "-").exists()


# -------------------------------------------------------------- determinism

def test_reruns_and_thread_counts_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, controlled_doc())
    outs = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 8)):
        out = tmp_path / name
        assert cli.run(str(cfg), out=str(out), threads=threads) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_brs_output_is_deterministic(tmp_path):
    doc = {"version": 1, "experiment": "brs", "master_seed": 4, "trials": 5000,
           "population": {"groups": [{"count": 3, "dist": {"kind": "exponential",
                                                           "rate": 1.0}}],
                          "budget": 1.0},
           "modes": ["independent", "comonotone"]}
    cfg = write_config(tmp_path, doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(str(cfg), out=str(a)) == 0
    assert cli.run(str(cfg), out=str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- exit codes

def test_exit_code_mapping():
    assert cli.exit_code_for(ConfigError("x")) == 2
    assert cli.exit_code_for(NumericFailure("x")) == 3
    assert cli.exit_code_for(PopulationOverflow("x")) == 4
    assert cli.exit_code_for(ValueError("x")) == 1
    wrapped = BatchTrialError(3, PopulationOverflow("boom"))
    assert cli.exit_code_for(wrapped) == 4
    assert cli.exit_code_for(BatchTrialError(0, wrapped)) == 4


def test_invalid_trials_exits_with_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, gw_doc(trials=0))
    assert cli.run(str(cfg)) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_a_g_past_the_float_range_names_its_first_such_generation(tmp_path, capsys):
    # g(n) = 1e305 n + 1 is inf from n = 1798 on; the table lane's spans read
    # g by runs, and no run search may report a later generation
    doc = controlled_doc(master_seed=4, trials=50, horizon=5000, initial_size=20,
                         law={"kind": "explicit_pmf", "pmf": {"0": 0.00001, "1": 0.99999}},
                         policy={"kind": "truncation",
                                 "g": {"form": "linear", "a": 1e305, "c": 1}})
    assert cli.run(str(write_config(tmp_path, doc))) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "g(1798) = inf; the form leaves the float range"}


def test_a_g_past_the_float_range_that_no_trial_reaches_still_reports(tmp_path):
    # the same g, but every trial dies long before generation 1798: the table
    # lane reads g ahead of its spans, and an error it meets there is raised
    # only by a span that reaches it; the sha256 is of the report body
    doc = controlled_doc(master_seed=4, trials=50, horizon=5000, initial_size=1,
                         law={"kind": "explicit_pmf", "pmf": {"0": 0.75, "2": 0.25}},
                         policy={"kind": "truncation",
                                 "g": {"form": "linear", "a": 1e305, "c": 1}})
    out = tmp_path / "report.csv"
    assert cli.run(str(write_config(tmp_path, doc)), out=str(out)) == 0
    _, _, body = out.read_bytes().partition(b"\n")
    assert (hashlib.sha256(body).hexdigest()
            == "8809d604fd6d72b5483d2dbf232cd024b85eb93d5ddbc9daa17929db6e546e66")


def test_missing_config_file_exits_with_config_error(tmp_path):
    assert cli.run(str(tmp_path / "nope.json")) == 2


def test_malformed_json_exits_with_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.run(str(path)) == 2


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # deeper than json's recursion limit
    json.dumps(gw_doc())[:-1] + ', "master_seed": ' + "9" * 5000 + "}",  # past 4300 digits
    b"\xff{}".decode("latin-1"),  # not UTF-8
], ids=["deep", "digits", "bytes"])
def test_a_document_json_cannot_build_exits_with_one_config_error_line(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="latin-1")
    assert cli.run(str(path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("where", ["missing/report.csv", "."], ids=["missing_dir", "directory"])
def test_a_report_path_that_cannot_be_opened_exits_with_one_config_error_line(
        tmp_path, capsys, where):
    cfg = write_config(tmp_path, gw_doc(trials=5, output={"path": str(tmp_path / where)}))
    assert cli.run(str(cfg)) == 2
    assert cli.run(str(write_config(tmp_path, gw_doc(trials=5))),
                   out=str(tmp_path / where)) == 2
    for line in capsys.readouterr().err.splitlines():
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"cannot write report {tmp_path / where}: ")
    assert not (tmp_path / "missing").exists()


def test_population_overflow_exit_and_error_record(tmp_path, capsys):
    doc = gw_doc(trials=2, horizon=100, population_cap=1000,
                 law={"kind": "explicit_pmf", "pmf": {"2": 1.0}})
    cfg = write_config(tmp_path, doc)
    assert cli.run(str(cfg)) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "BatchTrialError"
    assert record["cause"] == "PopulationOverflow"
    assert record["trial_index"] == 0


def test_all_trials_failing_within_budget_writes_nan_rows(tmp_path):
    # every trial overflows a cap of 1 at generation 1; the budget absorbs all
    doc = gw_doc(master_seed=1, trials=10, horizon=5, population_cap=1,
                 failure_budget=10, law={"kind": "explicit_pmf", "pmf": {"2": 1}})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[0].endswith(",failed_trials=10")
    assert lines[2:] == [f"{n},nan,nan" for n in range(6)]
    compared = tmp_path / "compare.csv"
    assert cli.compare_criterion_vs_empirical(str(cfg), out=str(compared)) == 0
    assert read_lines(compared)[2].split(",")[3:6] == ["nan", "nan", "0"]


@pytest.mark.parametrize("schedule,t_k", [
    (None, [1, 2, 3, 4, 5]),
    ({"values": [2, 4]}, [2, 4]),
    ({"family": "search", "max_points": 3}, [1, 2, 3]),
])
def test_series_with_every_trial_failed_writes_nan_rows(tmp_path, schedule, t_k):
    doc = {"version": 1, "experiment": "bcl_series", "master_seed": 1, "trials": 10,
           "horizon": 5, "population_cap": 1, "failure_budget": 10,
           "law": {"kind": "explicit_pmf", "pmf": {"2": 1}}}
    if schedule is not None:
        doc["schedule"] = schedule
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "series.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[0].endswith(",failed_trials=10")
    assert lines[1] == "k,t_k,p_marginal,p_conditional,partial_sum"
    assert lines[2:] == [f"{k},{t},nan,nan,nan" for k, t in enumerate(t_k, start=1)]


def test_series_with_every_trial_failed_still_checks_the_schedule(tmp_path, capsys):
    doc = {"version": 1, "experiment": "bcl_series", "master_seed": 1, "trials": 10,
           "horizon": 5, "population_cap": 1, "failure_budget": 10,
           "law": {"kind": "explicit_pmf", "pmf": {"2": 1}}, "schedule": {"values": [2, 9]}}
    assert cli.run(str(write_config(tmp_path, doc))) == 2
    assert "beyond horizon 5" in json.loads(capsys.readouterr().err)["message"]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc", [
    controlled_doc(policy={"kind": "truncation", "g": {"form": "linear", "a": NAN, "c": 1}}),
    controlled_doc(experiment="phi", policy={"kind": "phi",
                                             "phi": {"form": "linear", "a": NAN, "c": 1}}),
    controlled_doc(policy={"kind": "absorbing", "rule": {
        "kind": "disaster", "delta": {"form": "c_over_k", "c": NAN}}}),
    controlled_doc(policy={"kind": "truncation", "g": {"form": "log", "a": INF, "base": 2}}),
    controlled_doc(policy={"kind": "truncation", "g": {"form": "linear", "a": 1e308, "c": 1}}),
    controlled_doc(policy={"kind": "truncation", "g": {"form": "log", "a": 1e308, "base": 1.5}}),
    controlled_doc(experiment="phi", policy={"kind": "phi",
                                             "phi": {"form": "linear", "a": 1e307, "c": 1}}),
    gw_doc(law={"kind": "explicit_pmf", "pmf": {"x": 1}}),
    gw_doc(law={"kind": "explicit_pmf", "pmf": {"0": 1e308, "2": 1e308}}),
    gw_doc(law={"kind": "poisson", "lambda": -INF}),
    gw_doc(horizon=INF),
    {"version": 1, "experiment": "brs", "master_seed": 1, "trials": 10,
     "population": {"groups": [5], "budget": 1.0}},
    gw_doc(law={"kind": "binomial", "n": 1e30, "p": 0.5}),
    gw_doc(law={"kind": "explicit_pmf", "pmf": {"99999999999999999999": 1}}),
    controlled_doc(experiment="phi", initial_size=2**1100, population_cap=2**1101,
                   policy={"kind": "phi", "phi": {"form": "linear", "a": 0, "c": 1}}),
    gw_doc(experiment="bisexual", alpha=0.5, mating={"kind": "daley_polygamy", "d": 2**63}),
    {"version": 1, "experiment": "brs", "master_seed": 1, "trials": 10,
     "population": {"groups": [{"count": 2**62, "dist": {"kind": "uniform", "b": 1.0}}],
                    "budget": 1.0}},
], ids=["linear_g_nan", "linear_phi_nan", "disaster_c_nan", "log_g_inf", "linear_g_past_floats",
        "log_g_past_floats", "linear_phi_past_floats", "pmf_key_x", "pmf_sum_past_floats",
        "poisson_minus_inf", "horizon_inf", "group_not_object", "binomial_n_past_int64",
        "pmf_key_past_int64", "linear_phi_count_past_floats", "polygamy_d_past_int64",
        "brs_count_2_62"])
def test_bad_documents_exit_with_config_error(tmp_path, capsys, doc):
    assert cli.run(str(write_config(tmp_path, doc))) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("doc, message", [
    # a truncation policy would leave a bisexual run untruncated
    (gw_doc(experiment="bisexual", alpha=0.5, mating={"kind": "min"},
            policy={"kind": "truncation", "g": {"form": "constant", "c": 3}}),
     "experiment 'bisexual' takes no policy"),
    # a misspelt rounding would run a floor-rounded cap
    (controlled_doc(policy={"kind": "truncation", "g": {"form": "log", "a": 2.0, "base": 3.0,
                                                        "roundng": "ceil"}}),
     "growth function 'log' takes no roundng"),
], ids=["experiment", "sub_document"])
def test_a_key_the_experiment_does_not_read_exits_with_config_error(tmp_path, capsys, doc,
                                                                     message):
    assert cli.run(str(write_config(tmp_path, doc))) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


@pytest.mark.parametrize("mating", [{"kind": "min"}, {"kind": "daley_polygamy", "d": 3}])
def test_bisexual_totals_past_the_exact_lane_fail_their_trials(tmp_path, capsys, mating):
    # units past 2^90 / 3, the most the exact lane draws from, fail their
    # trial as an overflow, neither crashing the run nor, through an int64
    # product that wraps, counting the trial as extinct
    doc = {"version": 1, "experiment": "bisexual", "master_seed": 1, "trials": 3,
           "horizon": 200, "initial_units": 50, "population_cap": 1 << 200,
           "law": {"kind": "poisson", "lambda": 3.0}, "alpha": 0.5, "mating": mating}
    assert cli.run(str(write_config(tmp_path, doc, "abort.json"))) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "BatchTrialError" and record["cause"] == "PopulationOverflow"
    doc["failure_budget"] = 3
    out = tmp_path / "report.csv"
    assert cli.run(str(write_config(tmp_path, doc, "budget.json")), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[0].endswith(",failed_trials=3")
    assert lines[-1] == "200,nan,nan"


def test_failed_trials_enter_provenance_only_with_a_budget(tmp_path):
    plain = write_config(tmp_path, gw_doc(), "plain.json")
    budget = write_config(tmp_path, gw_doc(failure_budget=3), "budget.json")
    assert cli.run(str(plain), out=str(tmp_path / "plain.csv")) == 0
    assert cli.run(str(budget), out=str(tmp_path / "budget.csv")) == 0
    assert "failed_trials" not in read_lines(tmp_path / "plain.csv")[0]
    assert read_lines(tmp_path / "budget.csv")[0].endswith(",failed_trials=0")


def test_bisexual_failure_budget_counts_failures(tmp_path):
    doc = {"version": 1, "experiment": "bisexual", "master_seed": 1, "trials": 10,
           "horizon": 5, "population_cap": 1, "failure_budget": 10,
           "law": {"kind": "explicit_pmf", "pmf": {"2": 1}},
           "alpha": 0.5, "mating": {"kind": "min"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert cli.run(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[0].endswith(",failed_trials=10")
    assert lines[2:] == [f"{n},nan,nan" for n in range(6)]


# ------------------------------------------------------------------ compare

def test_compare_controlled_scenario(tmp_path):
    cfg = write_config(tmp_path, controlled_doc())
    out = tmp_path / "compare.csv"
    assert cli.compare_criterion_vs_empirical(str(cfg), out=str(out)) == 0
    lines = read_lines(out)
    assert lines[1] == "verdict,decay_exponent,q,extinction_fraction,ci_halfwidth,trials,horizon"
    row = lines[2].split(",")
    assert row[0] == "Divergent" and row[1] == ""
    assert float(row[2]) == 1.0 / 3.0
    assert float(row[3]) >= 0.9
    assert int(row[5]) == 500 and int(row[6]) == 300


def test_compare_of_a_poisson_50_log_truncation_is_convergent(tmp_path):
    # q = 1.93e-22, so alpha = a ln(1/q) / ln(base) is far above 1
    g = {"form": "log", "a": 2.0, "base": 3.0, "rounding": "ceil"}
    cfg = write_config(tmp_path, controlled_doc(
        trials=100, horizon=30, law={"kind": "poisson", "lambda": 50.0},
        policy={"kind": "truncation", "g": g}))
    out = tmp_path / "compare.csv"
    assert cli.compare_criterion_vs_empirical(str(cfg), out=str(out)) == 0
    row = read_lines(out)[2].split(",")
    q = float(row[2])
    assert row[0] == "Convergent"
    assert 0.0 < q == pytest.approx(math.exp(-50.0), rel=1e-15)
    assert float(row[1]) == 2.0 * math.log(1.0 / q) / math.log(3.0)


@pytest.mark.parametrize("policy", [
    {"kind": "truncation", "g": {"form": "table", "values": [1, 1000]}},
    {"kind": "absorbing", "rule": {"kind": "truncation_as_absorption",
                                   "g": {"form": "table", "values": [1, 1000]}}},
], ids=["truncation", "as_absorption"])
def test_compare_of_a_table_g_is_exact(tmp_path, policy):
    # the table holds 1000 forever, so sum_n q^g(n) diverges however it starts
    cfg = write_config(tmp_path, controlled_doc(trials=50, horizon=20, policy=policy))
    out = tmp_path / "compare.csv"
    assert cli.compare_criterion_vs_empirical(str(cfg), out=str(out)) == 0
    assert read_lines(out)[2].split(",")[:2] == ["Divergent", ""]


def test_compare_without_policy_leaves_verdict_empty(tmp_path):
    cfg = write_config(tmp_path, gw_doc(trials=200, horizon=30,
                                        law={"kind": "geometric", "r": 0.6}))
    out = tmp_path / "compare.csv"
    assert cli.compare_criterion_vs_empirical(str(cfg), out=str(out)) == 0
    row = read_lines(out)[2].split(",")
    assert row[0] == "" and row[1] == ""
    assert float(row[2]) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_compare_rejects_brs_scenarios(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "brs", "master_seed": 1, "trials": 10,
        "population": {"groups": [{"count": 1, "dist": {"kind": "uniform", "b": 1.0}}],
                       "budget": 0.25}})
    assert cli.compare_criterion_vs_empirical(str(cfg)) == 2


# --------------------------------------------------------------------- main

def test_main_run_subcommand(tmp_path):
    cfg = write_config(tmp_path, gw_doc(trials=50, horizon=5))
    out = tmp_path / "main.csv"
    assert cli.main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    assert out.exists()


def test_main_compare_subcommand(tmp_path):
    cfg = write_config(tmp_path, controlled_doc(trials=100, horizon=50))
    out = tmp_path / "main_cmp.csv"
    assert cli.main(["compare", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
    json.loads(out.read_text(encoding="utf-8"))


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_importing_the_cli_loads_no_module_a_batch_run_does_not_use():
    src = os.path.dirname(os.path.dirname(os.path.abspath(branchsim.__file__)))
    code = ("import sys, branchsim.cli; print(sorted(m for m in ('branchsim.brs', "
            "'branchsim.series', 'argparse', 'fractions') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_every_public_name_resolves_to_its_defining_module():
    assert len(branchsim.__all__) == len(set(branchsim.__all__)) == 65
    for name in branchsim.__all__:
        module = importlib.import_module(f"branchsim.{branchsim._SOURCES[name]}")
        obj = getattr(branchsim, name)
        assert obj is getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__
    with pytest.raises(AttributeError):
        branchsim.not_a_public_name
