"""Hierarchical multi-agent plan selection under adversarial behavior.

The package simulates tree-coordinated discrete plan selection, sweeps
adversarial scale / severity / placement, and analyzes outcomes into Pareto
fronts, knee points, and resilience / vulnerability / collapse zones.
"""

from .adversary import (
    cumulative_positions,
    layer_adversary_count,
    random_adversaries,
    severity_grid,
)
from .analytics import (
    RvcLabel,
    knee_mmd,
    multi_otsu,
    pareto_front,
)
from .config import SweepConfig, load_config
from .costs import (
    GlobalResponse,
    InefficiencyFn,
    scale_vector,
)
from .engine import (
    BehaviorProfile,
    RunConfig,
    RunOutcome,
    run,
    run_baseline,
    run_batch,
)
from .harness import (
    SweepGrid,
    analyze,
    estimate_experiment_count,
    run_structural,
    run_sweep,
)
from .plans import (
    PlanSet,
    generate_gaussian_plans,
    generate_voting_targets,
    load_plan_sets,
    load_target_signal,
    save_plan_sets,
    save_target_signal,
)
from .topology import TreeTopology, agents_in_layer, build_balanced_binary

__version__ = "0.1.0"
