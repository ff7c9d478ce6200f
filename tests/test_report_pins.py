"""Report bytes pinned for small configs of every experiment, policy and phi form.

Each pin is the sha256 of a report's lines after its provenance line (the
provenance line carries the config's own hash).  A change that alters any
report value changes a pin; such a change must say so and re-record them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from branchsim import brs, cli, control, engine, table

PMF = {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}}
GEOMETRIC = {"kind": "geometric", "r": 0.4}
PMF_DECAY = {"kind": "explicit_pmf", "pmf": {"0": 0.002, "1": 0.998}}


def run_doc(policy=None, coupled=False, **extra):
    doc = {"version": 1, "experiment": "gw", "master_seed": 17, "law": PMF,
           "trials": 60 if coupled else 1000, "horizon": 30 if coupled else 60}
    if policy is not None:
        doc["experiment"] = "phi" if policy["kind"] == "phi" else "controlled"
        doc["policy"] = policy
    if coupled:
        doc["coupled"] = True
    doc.update(extra)
    return doc


def truncation(g):
    return {"kind": "truncation", "g": g}


def absorbing(rule):
    return {"kind": "absorbing", "rule": rule}


def phi(form):
    return {"kind": "phi", "phi": form}


POLICIES = {
    "truncation_constant": truncation({"form": "constant", "c": 3}),
    "truncation_log": truncation({"form": "log", "a": 2.0, "base": 3.0, "rounding": "ceil"}),
    "truncation_as_absorption": absorbing({"kind": "truncation_as_absorption",
                                           "g": {"form": "linear", "a": 0.5, "c": 2}}),
    "disaster": absorbing({"kind": "disaster", "delta": {"form": "c_over_k", "c": 0.5}}),
    "lower_boundary": absorbing({"kind": "lower_boundary",
                                 "b": {"form": "table", "values": [1, 2, 2, 3]}}),
    "phi_identity": phi({"form": "identity"}),
    "phi_constant": phi({"form": "constant", "c": 2}),
    "phi_linear": phi({"form": "linear", "a": 0.5, "c": 1.0}),
    "phi_table": phi({"form": "table", "values": [0, 1, 2]}),
}


def bisexual_doc(mating):
    return {"version": 1, "experiment": "bisexual", "master_seed": 3, "trials": 300,
            "horizon": 30, "initial_units": 4, "law": {"kind": "poisson", "lambda": 2.2},
            "alpha": 0.5, "mating": mating}


def series_doc(schedule):
    return {"version": 1, "experiment": "bcl_series", "master_seed": 11, "trials": 300,
            "horizon": 40, "law": GEOMETRIC, "schedule": schedule}


CASES = {
    "gw_block": ("run", run_doc(law=GEOMETRIC)),
    "gw_coupled": ("run", run_doc(law=GEOMETRIC, coupled=True)),
    # two trial blocks, the second partial: pins the block size and layout
    "gw_two_blocks": ("run", run_doc(trials=16421, horizon=8)),
    # counts past 2^63: the exact lane, and phi on object arrays
    "gw_past_int64_block": ("run", run_doc(law={"kind": "geometric", "r": 0.6}, trials=200,
                                           horizon=110, population_cap=1 << 200)),
    "phi_linear_past_int64_block": ("run", run_doc(phi({"form": "linear", "a": 3.0, "c": 1.0}),
                                                   trials=200, horizon=31,
                                                   population_cap=1 << 200)),
    # the exact lane: counts between 2^53 and 2^63, which return to int64
    # blocks; counts crossing 2^63 from a larger start; trials overflowing a
    # 2^60 cap on the lane within a budget
    "gw_exact_lane_int64": ("run", run_doc(law={"kind": "geometric", "r": 0.6}, trials=200,
                                           horizon=100, population_cap=1 << 200)),
    "gw_exact_lane_past_int64": ("run", run_doc(law={"kind": "geometric", "r": 0.6},
                                                trials=200, horizon=100, initial_size=40,
                                                population_cap=1 << 200)),
    "gw_exact_lane_overflow": ("run", run_doc(law={"kind": "geometric", "r": 0.6}, trials=200,
                                              horizon=100, population_cap=1 << 60,
                                              failure_budget=200)),
    # Binomial and 3-atom pmf totals past the block bound: exact binomials
    "binomial_past_int64_block": ("run", run_doc(law={"kind": "binomial", "n": 3, "p": 0.6},
                                                 trials=200, horizon=75,
                                                 population_cap=1 << 200)),
    "pmf3_past_int64_block": ("run", run_doc(law={"kind": "explicit_pmf",
                                                  "pmf": {"0": 0.2, "1": 0.3, "3": 0.5}},
                                             trials=200, horizon=75, population_cap=1 << 200)),
    # Poisson totals past the block bound: one _poisson_exact draw a trial
    "poisson_past_int64_block": ("run", run_doc(law={"kind": "poisson", "lambda": 1.5},
                                                trials=200, horizon=110,
                                                population_cap=1 << 200)),
    # long enough that table draws take spans of many generations
    "truncation_log_long": ("run", run_doc(POLICIES["truncation_log"], trials=700,
                                           horizon=3000)),
    # the same for the absorbing rules that span, on a two-atom pmf that keeps
    # every count within the table: a disaster draws its control stream per
    # generation, a lower boundary folds into the table
    "disaster_long": ("run", run_doc(POLICIES["disaster"], law=PMF_DECAY, trials=400,
                                     horizon=600, initial_size=10)),
    "lower_boundary_long": ("run", run_doc(absorbing({"kind": "lower_boundary", "b": {
        "form": "linear", "a": 0.01, "c": 1}}), law=PMF_DECAY, trials=400, horizon=600,
        initial_size=8)),
    **{f"{name}_block": ("run", run_doc(policy)) for name, policy in POLICIES.items()},
    **{f"{name}_coupled": ("run", run_doc(policy, coupled=True))
       for name, policy in POLICIES.items()},
    "bisexual_min": ("run", bisexual_doc({"kind": "min"})),
    "bisexual_daley_monogamy": ("run", bisexual_doc({"kind": "daley_monogamy"})),
    "bisexual_daley_polygamy": ("run", bisexual_doc({"kind": "daley_polygamy", "d": 3})),
    "series_search": ("run", series_doc({"family": "search", "max_points": 6})),
    "series_linear": ("run", series_doc({"family": "linear", "max_points": 8})),
    "series_explicit": ("run", series_doc({"values": [1, 3, 9, 27]})),
    "brs": ("run", {"version": 1, "experiment": "brs", "master_seed": 2, "trials": 300,
                    "modes": ["independent", "comonotone"],
                    "population": {"budget": 4.0, "groups": [
                        {"count": 6, "dist": {"kind": "uniform", "b": 2.0}},
                        {"count": 4, "dist": {"kind": "exponential", "rate": 1.5}}]}}),
    "compare_truncation": ("compare", run_doc(POLICIES["truncation_constant"])),
    "compare_truncation_as_absorption": ("compare",
                                         run_doc(POLICIES["truncation_as_absorption"])),
    "compare_phi_linear": ("compare", run_doc(POLICIES["phi_linear"])),
}

PINS = {
    "binomial_past_int64_block": "2824235c48fb8913aed2aa62fcf187f6bd5368dff0393ac8d3f440e3aaa9adcc",
    "bisexual_daley_monogamy": "f9399a8df2f78ae2bfe5565c27a51c17c61dbae67cae712d9337e3e60b277011",
    "bisexual_daley_polygamy": "269129847bf70178b62636efe347d72bc031b74707440994958b90b96c4eface",
    "bisexual_min": "e7076127a836e49af339e0ac71bc7b299a115850fe77d6549f47ccbe9b8df979",
    "brs": "b5b5c7c9f3f39258d593a96d85e2c80ae6c1d20a83975c0d2c2383aefb260d47",
    "compare_phi_linear": "ac15ae2e3ced57e2d1910b857234a4ab05d5f3e1aa2c825a2fff89019e1567bc",
    "compare_truncation": "8e07932d2dcfcdcb69a22fdb76a0a7305b8a9cbadd513bde54fca33c9708117a",
    "compare_truncation_as_absorption": "ecd07640ea5d96bb0ba8ab4cc8c029a9eb64e3cd30efd03cae2ec66f82a4c587",
    "disaster_block": "d6f3a164bcc4855cfc82d56e61ac20413c68d44b64b21f0ece4fc76faf4e5a64",
    "disaster_coupled": "4e6baf3ea7a10a03e60a8cfb8830922f1f7c913ee9972207526c30decb075356",
    "disaster_long": "5eac8e5c15c38a9eed2900374e7d05f8a7a761a6553baad1d22cc79e81c09873",
    "gw_block": "ba237598ddb9655c10e4a618c956898e157e732f169635296f6dba431cddb76b",
    "gw_coupled": "f6f4f6f57078a2286927f360ba6c1c0e4888a7f7cad1972a9cff6a15b5ac6232",
    "gw_exact_lane_int64": "d9498f136998cf77dab8b73e009c80b4c09a2f9e0a39e68082b1b65c615f5f93",
    "gw_exact_lane_overflow": "7028d080e5a1560370bdbdc059167bdbbf3ab0b0db7ce3400361c49c2e74b463",
    "gw_exact_lane_past_int64": "ef3144514fdbd4677b2084ff9c0f0ff22ba7ae3a72a879746d293cf48d59c18c",
    "gw_past_int64_block": "ec95579e5f1d01ab95aa8b888f0f12fc936dfb14af7063980e9e2797af269eb2",
    "gw_two_blocks": "cc9694d52f3f4ef048eb48ba08cc45cc99d3617ec30b31d94a1e6e24467176d1",
    "lower_boundary_block": "9f3ac3cb698820fe91e7d824d26374f99a6fcdcf3234019fa3459102afc136f7",
    "lower_boundary_coupled": "42b7bce55d9e2fb0462e85129abd24ac1da7f6d583e0cb9abe8a6002fde0b15a",
    "lower_boundary_long": "d68efc6eee073acbd0e32a7c38c424bb78e981b86ba5ddf37f46fa6f86d5f761",
    "phi_constant_block": "06ecbf13f1fe23c0c44c623f57c231933fec2d673ed5c185f1dce812d1c1b8ae",
    "phi_constant_coupled": "fbf68b014cb0f91452d1a4cea3fb8c4ea19e741f97298c95fdd3cf25cef0033a",
    "phi_identity_block": "9d31ffde7075bc0cd66069ce1c996aa4623395191e63232dbef1bae02ce5750f",
    "phi_identity_coupled": "d3ab471501bf74b63cd26dceb7cafa1d3ffbcb376ead64fd49705bca22bde3a5",
    "phi_linear_block": "d436930bd5c54a9f9f9c2efc7f5a99df0c1a78d04ffeed79c118b9fa0cf3ef7c",
    "phi_linear_coupled": "ed73d1f8788cd62f22e2646b2de30885bba3162259d75c6ea791af900b82da23",
    "phi_linear_past_int64_block": "00b4f0e6ebd49bf65016b46810cfc9ac217615565a42c4c6b6778c642d34d5cc",
    "phi_table_block": "52cf3be27203d6660ccc80ba376e912f3ac004c76779bf870ffacf74e5bc701e",
    "phi_table_coupled": "8a31e6ce7c9e0547344695698ac59d1f1bab8b373cee14549a23d58af6a85528",
    "pmf3_past_int64_block": "51f14792eb86d821d423e2ace7247857dc0f0702c163050849274a437f090dea",
    "poisson_past_int64_block": "fe84a04f54edc0c83adea521e6bb2d60ab539424dae66f614f7a313f1b422240",
    "series_explicit": "469a8691c7b79281294a71122738573621c9c19502653067bee0c031793a3ce9",
    "series_linear": "7e4e5df56f33e090a21587e24b8aeabcbf7de59cb8fce57c8e9fad9709295c96",
    "series_search": "d75d030da97061f6689986bb685d0db2cc4e853e77301b871425192312a883a3",
    "truncation_as_absorption_block": "36beede5d0c8d34f7f661420334d714ee9312d22b4a711c1aa4e0971aa7de90c",
    "truncation_as_absorption_coupled": "5cac5c56caa0db6ee370bf81bd21ecb5fdd627c7f72a8d52795a4bfe809af594",
    "truncation_constant_block": "3132960bebff83effd7510328afab9cac75ffb42221098ae91eb780f21a6147f",
    "truncation_constant_coupled": "188cfbaa48efc0b2c8dedece5e27626f12c62a99c5e5fe91a283deaa41e3f0f2",
    "truncation_log_block": "4243427e7c89b8d2d6ca52ae1e9b7d5785687b6eb2aeea6be098165240745b0e",
    "truncation_log_coupled": "da8bbf148cb0665743bfd34f9b0aa3122e495f73a6dee112dbf50f41be6b89e6",
    "truncation_log_long": "34843fab2d24f4caea66184431c02c864bf90401f51ca7c1c6075964392cf595",
}


def report_digest(tmp_path, command, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.csv"
    run = cli.run if command == "run" else cli.compare_criterion_vs_empirical
    assert run(str(cfg), out=str(out)) == 0
    _, _, body = out.read_bytes().partition(b"\n")
    return hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_pin(tmp_path, name):
    assert report_digest(tmp_path, *CASES[name]) == PINS[name]


def test_a_brs_report_solves_its_threshold_once(tmp_path, monkeypatch):
    searched, search = [], brs._least_crossing
    monkeypatch.setattr(brs, "_least_crossing",
                        lambda *args: searched.append(args[1]) or search(*args))
    assert report_digest(tmp_path, *CASES["brs"]) == PINS["brs"]
    assert searched == [4.0]  # the population's budget, once


def test_the_truncation_bench_round_keeps_its_bytes_with_few_spans_and_g_calls(
        tmp_path, monkeypatch):
    # bench/run.py's truncation_log config at master seed 2024000, pinned when
    # every span generation read g once: 165 steps calls and 2123 g calls then,
    # and 4 draws off the table lane while a block's first span grew no rows;
    # 14 grows when each span grew again to the caps of its levels
    doc = run_doc(truncation({"form": "log", "a": 2.0, "base": 3.0, "rounding": "ceil"}),
                  master_seed=2024000, trials=500, horizon=2000)
    calls = {"steps": 0, "g": 0, "draws": 0, "grow": 0, "buckets": 0, "fold": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(table._TableDraw, "steps", counted("steps", table._TableDraw.steps))
    monkeypatch.setattr(control.GrowthFunction, "__call__",
                        counted("g", control.GrowthFunction.__call__))
    monkeypatch.setattr(engine, "_draw_offspring", counted("draws", engine._draw_offspring))
    monkeypatch.setattr(table._TableDraw, "_grow", counted("grow", table._TableDraw._grow))
    monkeypatch.setattr(table, "_buckets", counted("buckets", table._buckets))
    monkeypatch.setattr(table._TableDraw, "_fold", counted("fold", table._TableDraw._fold))
    assert (report_digest(tmp_path, "run", doc)
            == "20e7f3b7426f9b3ab816be98c02b57e5ad03eb6ba3e940e6c4d3f95b5a70c1fd")
    assert calls["steps"] <= 120 and calls["g"] <= 280 and calls["draws"] == 0, calls
    assert calls["grow"] <= 13 and calls["buckets"] <= 12 and calls["fold"] <= 24, calls
