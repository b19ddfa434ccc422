"""Multi-fidelity, multi-objective joint hyperparameter and architecture
optimization: prior-guided ensemble sampling over successive-halving
brackets, a hierarchical U-Net architecture grammar, a synthetic evaluation
harness, and post-hoc importance / transfer analysis."""

from .configspace import (
    Configuration,
    ParameterSpec,
    SearchSpace,
    build_space,
    load_space,
    normalize,
    prior_pdf,
    sample,
    space_to_dict,
)
from .grammar import (
    Grammar,
    build_grammar,
    count_derivations,
    default_derivation,
    enumerate_derivations,
    parse,
    sample_derivation,
    serialize,
)
from .harness import (
    ExternalEvaluator,
    ReplayProblem,
    SyntheticProblem,
    dsc,
)
from .moo import (
    CostVector,
    area_incumbent,
    crowding_distance,
    non_dominated_sort,
    select_top_k,
)
from .priorband import (
    RunHistory,
    RunResult,
    SamplerWeights,
    dynamic_weighting,
    final_incumbent,
    incumbent_for_sampling,
    run,
    sampler_weights,
)
from .scheduler import (
    BracketPlan,
    BudgetLadder,
    Trial,
    bracket_plan,
    budget_ladder,
    charge_cost,
)
from .analysis import (
    CrossEvalMatrix,
    ImportanceReport,
    cross_eval,
    export_reports,
    fanova_first_order,
)

__version__ = "0.1.0"

__all__ = [
    "BracketPlan",
    "BudgetLadder",
    "Configuration",
    "CostVector",
    "CrossEvalMatrix",
    "ExternalEvaluator",
    "Grammar",
    "ImportanceReport",
    "ParameterSpec",
    "ReplayProblem",
    "RunHistory",
    "RunResult",
    "SamplerWeights",
    "SearchSpace",
    "SyntheticProblem",
    "Trial",
    "area_incumbent",
    "bracket_plan",
    "budget_ladder",
    "build_grammar",
    "build_space",
    "charge_cost",
    "count_derivations",
    "cross_eval",
    "crowding_distance",
    "default_derivation",
    "dsc",
    "dynamic_weighting",
    "enumerate_derivations",
    "export_reports",
    "fanova_first_order",
    "final_incumbent",
    "incumbent_for_sampling",
    "load_space",
    "non_dominated_sort",
    "normalize",
    "parse",
    "prior_pdf",
    "run",
    "sample",
    "sample_derivation",
    "sampler_weights",
    "select_top_k",
    "serialize",
    "space_to_dict",
]
