"""Hierarchical multi-agent plan selection under adversarial behavior.

The package simulates tree-coordinated discrete plan selection, sweeps
adversarial scale / severity / placement, and analyzes outcomes into Pareto
fronts, knee points, and resilience / vulnerability / collapse zones.
"""

from .adversary import (
    AttackSpec,
    cumulative_positions,
    enumerate_layer_configs,
    layer_adversary_count,
    make_profile,
    random_adversaries,
    severity_grid,
)
from .analytics import (
    MetricPoint,
    RvcLabel,
    classify_rvc,
    compromised_discomfort,
    knee_mmd,
    multi_otsu,
    pareto_front,
)
from .costs import (
    GlobalResponse,
    InefficiencyFn,
    aggregate_discomfort,
    rss_cost,
    scale_vector,
    variance_cost,
)
from .engine import (
    BehaviorProfile,
    RunConfig,
    RunOutcome,
    run,
    run_baseline,
    run_batch,
    select_plan,
)
from .harness import (
    SweepConfig,
    SweepGrid,
    analyze,
    estimate_experiment_count,
    load_config,
    run_structural,
    run_sweep,
)
from .plans import (
    Plan,
    PlanSet,
    TargetSignal,
    generate_gaussian_plans,
    generate_voting_targets,
    load_plan_sets,
    load_target_signal,
    save_plan_sets,
    save_target_signal,
)
from .topology import TreeTopology, agents_in_layer, build_balanced_binary

__version__ = "0.1.0"
