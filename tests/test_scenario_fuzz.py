"""Property tests: every JSON document parses or fails as a ConfigError, and
every document that parses runs or fails cleanly.

The parse test takes a valid document of one experiment and puts an
arbitrary JSON value (NaN and the infinities included, as Python's json
reads them) at one path of it.  The run test sets one to three numeric
leaves of a valid document to extreme values and runs it through the
command line, ``run`` or ``compare``.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import operator
import signal
import warnings

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from branchsim import ConfigError, ScenarioConfig, cli

PMF = {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}}


def _doc(experiment, **extra):
    doc = {"version": 1, "experiment": experiment, "master_seed": 3, "trials": 10,
           "output": {"format": "csv", "path": "report.csv"}}
    if experiment != "brs":  # the one experiment without generations
        doc["horizon"] = 8
    doc.update(extra)
    return doc


VALID = [
    _doc("gw", law={"kind": "geometric", "r": 0.4}, initial_size=2, population_cap=1 << 40,
         failure_budget=1, coupled=False),
    _doc("gw", law={"kind": "explicit_pmf", "pmf": [[0, 1], [3, 2]]}),
    _doc("controlled", law={"kind": "binomial", "n": 3, "p": 0.5},
         policy={"kind": "truncation", "g": {"form": "log", "a": 2.0, "base": 3.0,
                                             "rounding": "ceil"}}),
    _doc("controlled", law=PMF, policy={"kind": "truncation",
                                        "g": {"form": "table", "values": [2, 5, 3]}}),
    _doc("controlled", law=PMF, policy={"kind": "absorbing", "rule": {
        "kind": "truncation_as_absorption", "g": {"form": "linear", "a": 1.5, "c": 2}}}),
    _doc("controlled", law={"kind": "poisson", "lambda": 1.5}, policy={
        "kind": "absorbing", "rule": {"kind": "disaster",
                                      "delta": {"form": "table", "values": [0.1, 0.5]}}}),
    _doc("controlled", law=PMF, policy={"kind": "absorbing", "rule": {
        "kind": "disaster", "delta": {"form": "c_over_k", "c": 0.5}}}),
    _doc("controlled", law=PMF, policy={"kind": "absorbing", "rule": {
        "kind": "lower_boundary", "b": {"form": "constant", "c": 2}}}),
    _doc("phi", law=PMF, policy={"kind": "phi", "phi": {"form": "linear", "a": 0.5, "c": 1}}),
    _doc("phi", law=PMF, policy={"kind": "phi", "phi": {"form": "table", "values": [1, 2]}}),
    _doc("bisexual", law=PMF, alpha=0.4, initial_units=3,
         mating={"kind": "daley_polygamy", "d": 3}),
    _doc("bcl_series", law=PMF, schedule={"values": [1, 3, 8]}),
    _doc("bcl_series", law=PMF, schedule={"family": "search", "max_points": 4}),
    _doc("brs", population={"groups": [{"count": 2, "dist": {"kind": "uniform", "b": 1.0}},
                                       {"count": 1, "dist": {"kind": "exponential", "rate": 2.0}}],
                            "budget": 1.5},
         modes=["independent", "comonotone"]),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


CASES = [(doc, path) for doc in VALID for path in _paths(doc)]


def test_every_valid_document_parses():
    for doc in VALID:
        assert isinstance(ScenarioConfig.from_dict(doc), ScenarioConfig)


def test_a_key_that_no_object_reads_is_a_config_error():
    # every JSON object of a document, the root included, names the unread key
    for doc, path in CASES:
        obj = functools.reduce(operator.getitem, path, doc)
        if isinstance(obj, dict):
            with pytest.raises(ConfigError, match=r"\bzz\b"):
                ScenarioConfig.from_dict(_replaced(doc, path, {**obj, "zz": 0}))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_any_value_at_any_path_parses_or_is_a_config_error(case, value):
    doc, path = case
    try:
        config = ScenarioConfig.from_dict(_replaced(doc, path, value))
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)


EXTREMES = [0, 1, 2**53, 2**63 - 1, 2**63 + 1, 2**200, 10**15, 1e-300, 5e-324]
BOUNDS = {("trials",): 40, ("horizon",): 30}  # a run's work stays small whatever the leaves
CASE_SECONDS = 10.0


def _numeric_leaves(doc):
    return [path for path in _paths(doc)
            if type(functools.reduce(operator.getitem, path, doc)) in (int, float)]


@st.composite
def extreme_documents(draw):
    doc = draw(st.sampled_from(VALID))
    leaves = draw(st.lists(st.sampled_from(_numeric_leaves(doc)), min_size=1, max_size=3,
                           unique=True))
    for path in leaves:
        bound = BOUNDS.get(path, math.inf)
        doc = _replaced(doc, path, draw(st.sampled_from([v for v in EXTREMES if v <= bound])))
    return doc


def _main(argv):
    """Exit code, standard output and standard error of one command line; a
    warning, which Python would print to standard error, is an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=extreme_documents(), command=st.sampled_from(["run", "compare"]))
def test_extreme_numbers_run_or_fail_cleanly(config_path, doc, command):
    def stop(*_):
        raise TimeoutError(f"{command} took over {CASE_SECONDS} s on {doc}")

    config_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, str(config_path), "--out", "-"]
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        first = _main(argv)
        assert _main(argv) == first  # a rerun gives the same bytes
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    code, report, errors = first
    assert code in (0, 2, 3, 4)
    if code:
        record = json.loads(errors)
        assert errors.count("\n") == 1 and set(record) >= {"error", "message"}
    else:
        assert errors == "" and report.startswith("# config_sha256=")
