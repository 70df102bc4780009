"""normmon — norm monitoring for concurrent multi-agent systems under
partial action observability.

The monitor maintains a sound partial description of the world state from
the actions it can observe, reconstructs the actions of unobserved agents
(exhaustively or approximately), and reports identified and discovered
violations and fulfilments of prohibitions and obligations.
"""

from .actions import (
    ActionDescription,
    ActionInstance,
    joint_post,
    joint_pre,
)
from .harness import (
    CaseStudyConfig,
    GroundTruthEvent,
    GroundTruthLog,
    Metrics,
    RandomConfig,
    RunScore,
    generate_case_study,
    generate_random,
    observe,
    oracle_events,
    repetition_seed,
    run_experiment,
    run_monitor,
    score_run,
    simulate,
)
from .logic import (
    CompiledRules,
    IntegrityRule,
    LiteralSet,
    StaticFacts,
    consistent_with,
    eval_constraint,
    is_consistent,
    unify,
)
from .monitor import (
    APPROXIMATE,
    COMPLETE,
    EMPTY,
    FULL,
    TRADITIONAL,
    VARIANTS,
    NormMonitor,
    SensorFault,
    TickRecord,
    check_norms,
)
from .norms import (
    DISCOVERED,
    FULFILLED,
    IDENTIFIED,
    OBLIGATION,
    PROHIBITION,
    UNKNOWN,
    VIOLATED,
    Norm,
    NormInstance,
    Verdict,
    judge,
    relevant_instances,
)
from .reconstruction import (
    KnowledgeFault,
    ReconstructionOutcome,
    approximate_reconstruct,
    approximate_search,
    candidate_actions,
    full_reconstruct,
    search,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_atom,
    parse_literal,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
)
from .trace import TraceError, read_trace, replay_trace, write_trace

__version__ = "0.1.0"
