"""Truncation-dimension-aware multilevel Monte Carlo.

Estimators for unit-cube integrals whose cost scales with the effective
(truncation) dimension rather than the nominal one, plus the matching
machinery for time-varying Markov chain functionals, an executable
residual-variance oracle, and a reproducible benchmark CLI.
"""

from .anova import (DegenerateIntegrandError, InequalityReport,
                    UnsupportedIntegrandError, VarianceProfile,
                    analytic_profile, check_pair_variance_bound,
                    check_residual_lower_bound, isotonic_nonincreasing,
                    mc_profile)
from .integrands import (Integrand, geometric_coefficients, make_additive,
                         make_product)
from .markov import (ChainModel, DecayReport, chain_integrand, drift_integral,
                     estimate_chain_mlmc, make_lindley, markov_schedule,
                     measure_decay, modulated_uniform_increments,
                     standard_mc_chain, uniform_increments)
from .mlmc import (EstimateRecord, LevelSchedule, check_level_budget_bound,
                   dyadic_prefixes, estimate_mlmc, estimate_mlmc_fixed,
                   level_variance_estimates, predicted_variance, replicate,
                   samples_needed, standard_mc, summarize, total_budget,
                   truncation_schedule, work_normalized_variance)
from .streams import CostLedger, UniformStream, new_stream

__version__ = "0.1.0"
