"""Simulation and verification toolkit for branching processes.

Modules:
    law       offspring distributions, pgf, mean, extinction probability
    engine    offspring-sum sampling, trajectories, Monte Carlo batches
    control   truncation, absorbing rules, phi-control, series criteria
    bisexual  two-sex processes with mating functions
    series    conditional-probability series along nested extinction events
    brs       budget stopping times and their expectation bound
    cli       scenario-driven command line front end
"""

import importlib

__version__ = "0.2.0"

_SOURCES = {name: module for module, *names in map(str.split, """
bisexual BisexualState BoundednessReport CustomMating DaleyMonogamy DaleyPolygamy MeanReproduction
bisexual Min bisexual_step initial_state mean_reproduction_per_unit run_bisexual_batch theorem4_check
brs ClaimDistribution CustomClaim Exponential Population StopEstimate Uniform brs_bound
brs estimate_expected_stop solve_threshold stopping_time
control ControlPolicy CriterionVerdict CustomAbsorption Disaster DisasterSchedule GrowthFunction
control LowerBoundary Phi Truncation TruncationAsAbsorption expectation_criterion zubkov_criterion
engine DEFAULT_POPULATION_CAP BatchResult Trajectory run_batch sample_offspring_total
engine sample_offspring_totals
errors BatchTrialError BranchsimError BudgetExceedsMass ConfigError InvalidRuleError
errors NumericFailure PopulationOverflow
law Binomial ExplicitPmf ExtinctionResult Geometric OffspringLaw Poisson extinction_probability
rng STREAM_CONTROL STREAM_OFFSPRING STREAM_SEX TrialStreams spawn_generator
scenario OutputSpec ScenarioConfig
series MonotoneEventEstimate estimate_conditional_series exact_partial_sum schedule_search
""".strip().splitlines()) for name in names}
__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
