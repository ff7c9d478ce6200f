"""Command-line front end: outputs, provenance, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json

import pytest

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


def test_missing_config_file_exits_with_config_error(tmp_path):
    assert cli.run(str(tmp_path / "nope.json")) == 2


def test_malformed_json_exits_with_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.run(str(path)) == 2


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
    assert read_lines(compared)[2].split(",")[4:7] == ["nan", "nan", "0"]


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
    assert lines[1] == ("verdict,method,fitted_decay_exponent,q,"
                        "extinction_fraction,ci_halfwidth,trials,horizon")
    row = lines[2].split(",")
    assert row[0] == "Divergent" and row[1] == "exact" and row[2] == ""
    assert float(row[3]) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(row[4]) >= 0.9
    assert int(row[6]) == 500 and int(row[7]) == 300


def test_compare_without_policy_leaves_verdict_empty(tmp_path):
    cfg = write_config(tmp_path, gw_doc(trials=200, horizon=30,
                                        law={"kind": "geometric", "r": 0.6}))
    out = tmp_path / "compare.csv"
    assert cli.compare_criterion_vs_empirical(str(cfg), out=str(out)) == 0
    row = read_lines(out)[2].split(",")
    assert row[0] == "" and row[1] == "" and row[2] == ""
    assert float(row[3]) == pytest.approx(2.0 / 3.0, abs=1e-9)


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
