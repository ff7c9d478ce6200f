"""The names that ``bench/child.py`` wraps or calls in a traced round.

A traced round replaces these attributes with timing wrappers and times the
offspring-total sampler directly, so a rename or removal under ``src/``
would break it; this keeps that break in the tier-1 suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from branchsim import ExplicitPmf, Geometric, Poisson, bisexual, cli, control, engine, rng, scenario

WRAPPED = [(rng, "spawn_generator"), (control.GrowthFunction, "__call__"),
           (bisexual, "bisexual_step"), (bisexual, "sample_offspring_total"),
           (bisexual.Min, "units"), (scenario.ScenarioConfig, "from_dict"),
           (cli, "run_batch"), (cli, "run_bisexual_batch")]


@pytest.mark.parametrize("owner,name", WRAPPED, ids=lambda v: v if isinstance(v, str) else "")
def test_every_name_the_bench_tracer_wraps_resolves(owner, name):
    assert callable(getattr(owner, name))


@pytest.mark.parametrize("law", [Geometric(0.6), ExplicitPmf({0: 0.25, 2: 0.75}), Poisson(1.5)],
                         ids=repr)
def test_the_bench_sampler_draws_within_and_past_the_block_bound(law):
    draw, gen = engine._make_total_sampler(law, 1 << 200, False), np.random.default_rng(20240)
    one, many = draw(1, gen), draw((1 << 55) + 1, gen)
    assert type(one) is int and one >= 0
    assert type(many) is int and abs(many / 2**55 - law.mean()) < 1e-6
