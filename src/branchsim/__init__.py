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

__version__ = "0.2.0"

from .bisexual import (BisexualState, BoundednessReport, CustomMating,
                       DaleyMonogamy, DaleyPolygamy, MeanReproduction, Min,
                       bisexual_step, initial_state, mean_reproduction_per_unit,
                       run_bisexual_batch, theorem4_check)
from .brs import (ClaimDistribution, CustomClaim, Exponential, Population,
                  StopEstimate, Uniform, brs_bound, estimate_expected_stop,
                  solve_threshold, stopping_time)
from .control import (ControlPolicy, CriterionVerdict, CustomAbsorption, Disaster,
                      DisasterSchedule, GrowthFunction, LowerBoundary, Phi, Truncation,
                      TruncationAsAbsorption, expectation_criterion, zubkov_criterion)
from .engine import (DEFAULT_POPULATION_CAP, BatchResult, Trajectory,
                     run_batch, sample_offspring_total,
                     sample_offspring_totals, simulate_trajectory)
from .errors import (BatchTrialError, BranchsimError, BudgetExceedsMass,
                     ConfigError, InvalidRuleError, NumericFailure,
                     PopulationOverflow)
from .law import (Binomial, ExplicitPmf, ExtinctionResult, Geometric,
                  OffspringLaw, Poisson, extinction_probability)
from .rng import (STREAM_CONTROL, STREAM_OFFSPRING, STREAM_SEX, TrialStreams,
                  spawn_generator)
from .scenario import OutputSpec, ScenarioConfig
from .series import (MonotoneEventEstimate, estimate_conditional_series,
                     exact_partial_sum, schedule_search)
