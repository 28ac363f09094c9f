"""Two-particle Bell-test simulation and analysis toolkit.

Quantum match probabilities with an independent statevector oracle,
exhaustive impossibility checks for local deterministic and stochastic
hidden-variable models, a seeded Monte Carlo experiment harness with a
reject/retain decision rule, and a linear-programming treatment of the
detection loophole.
"""

from types import ModuleType as _ModuleType

from .counterfactuals import (
    BELL_PAIRS,
    WITNESS_PATTERN,
    Assignment,
    CounterfactualTable,
    DerivationTrace,
    MPattern,
    Population,
    TraceStep,
    all_tables,
    bell_statistic,
    exists_local_table_with_pattern,
    find_interaction_unit,
    lhv_max_bell_statistic,
    match_indicator,
    theorem1_contradiction_trace,
    theorem1_witness_check,
    violation_margin,
)
from .experiment import (
    BellEstimate,
    ConfigError,
    Decision,
    EstimationError,
    ExperimentConfig,
    TrialDataset,
    TrialRecord,
    decide,
    estimate,
    read_dataset_csv,
    read_row_counts,
    run_experiment,
    write_dataset_csv,
)
from .lhv import (
    DeterministicLhv,
    GridSearchResult,
    StochasticLocalModel,
    lhv_match_table,
    load_model,
    sample_from_lhv,
    save_model,
    stochastic_bell_search,
    stochastic_bell_supremum,
    stochastic_expected_match,
)
from .loophole import (
    FakingProblem,
    LpSolution,
    demonstration_solution,
    max_faking_efficiency,
    sample_loophole_model,
    solve_lp,
)
from .quantum import (
    Angle,
    AngleTriple,
    MatchProbabilityTable,
    TwoQubitState,
    match_probability,
    match_table,
    sample_outcome_pair,
    singlet_match_probabilities,
    singlet_match_probability_oracle,
)
from .rng import SplitMix64, derive_seed
from .simplex import LinearProgram, SimplexError, SimplexResult

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()  # the public names imported above
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
