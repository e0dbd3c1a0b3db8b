"""Cobot personalisation toolkit.

Three layers: a meta-model that classifies cyber-physical-social systems and
their System-of-Systems emergence, a desk-scale smart-workshop MDP with a
composite prioritised reward, and reinforcement-learning solvers (exact value
iteration, tabular Q-learning, a from-scratch neural Q-approximator) that
learn personalised cobot policies.
"""

__version__ = "0.1.0"

from .meta_model import (  # noqa: F401
    AxiomId,
    Capability,
    Component,
    ComponentType,
    Coupling,
    GraphValidationError,
    InvalidSystemError,
    Relation,
    RelationKind,
    SosClassification,
    SosGraph,
    SystemKind,
    SystemNode,
    classify_sos,
    classify_system,
    full_component,
    load_graph,
    save_graph,
    validate_graph,
)
from .personalisation import (  # noqa: F401
    BindingResult,
    Direction,
    ObjectiveSpec,
    PersoScenario,
    RlTaskDef,
    assemble_rl_task,
    bind_roles,
    detect_conflicts,
)
from .rl_core import (  # noqa: F401
    FiniteMdp,
    LearningSchedule,
    QTable,
    bellman_residual,
    epsilon_greedy,
    evaluate_policy,
    greedy_policy,
    q_update,
    train_tabular,
    value_iteration,
)
from .workshop_env import (  # noqa: F401
    ACTIONS,
    Action,
    EnvParams,
    EpisodeOverError,
    InvalidParamsError,
    RewardBreakdown,
    WorkerProfile,
    WorkerState,
    WorkshopEnv,
    WorkshopState,
    decode_state,
    encode_state,
    num_states,
    reward_fn,
    transition_model,
    worker_need,
)
from .dqn import (  # noqa: F401
    DivergenceError,
    DqnHyperparams,
    EpsilonDecay,
    MlpParams,
    ReplayBuffer,
    forward,
    loss_and_grad,
    sgd_step,
    sync_target,
    train_dqn,
)
