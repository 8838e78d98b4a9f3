"""User-simulation RL harness and recommendation environment.

A numpy library with five pillars:

- :mod:`simrec.core`: domain types and dataset ingestion
- :mod:`simrec.rewards`: transcript parsing and verifiable reward tables
- :mod:`simrec.grpo`: group-relative policy optimization and a toy policy
- :mod:`simrec.env`: candidate sets, episodes, prompts, synthetic worlds
- :mod:`simrec.recommender`: candidate generators and ranking metrics

plus :mod:`simrec.llmclient` / :mod:`simrec.ipagent` for chat-endpoint
orchestration and :mod:`simrec.cli` for reproducible runs.
"""

__version__ = "0.1.0"

from .core import (
    BehaviorRecord,
    CandidateSet,
    Item,
    Judgment,
    Selection,
    UserHistory,
    attach_captions,
    load_interactions,
)
from .env import (
    EnvConfig,
    Episode,
    SyntheticEpisodeSource,
    build_candidate_set,
    generate_synthetic_world,
    make_episode,
)
from .grpo import (
    GrpoConfig,
    RolloutGroup,
    ToySoftmaxPolicy,
    kl_estimate,
    normalize_advantages,
    objective_gradient,
    surrogate_objective,
    train,
)
from .recommender import (
    MetricReport,
    augment_with_feedback,
    classification_metrics,
    evaluate_leave_one_out,
    fit_embedding,
    fit_markov,
    fit_popularity,
)
from .rewards import (
    ParsedResponse,
    RewardBreakdown,
    format_reward,
    judgment_reward,
    parse_response,
    score_parsed,
    selection_reward,
    total_reward,
)

__all__ = [
    "__version__",
    "BehaviorRecord",
    "CandidateSet",
    "Item",
    "Judgment",
    "Selection",
    "UserHistory",
    "attach_captions",
    "load_interactions",
    "EnvConfig",
    "Episode",
    "SyntheticEpisodeSource",
    "build_candidate_set",
    "generate_synthetic_world",
    "make_episode",
    "GrpoConfig",
    "RolloutGroup",
    "ToySoftmaxPolicy",
    "kl_estimate",
    "normalize_advantages",
    "objective_gradient",
    "surrogate_objective",
    "train",
    "MetricReport",
    "augment_with_feedback",
    "classification_metrics",
    "evaluate_leave_one_out",
    "fit_embedding",
    "fit_markov",
    "fit_popularity",
    "ParsedResponse",
    "RewardBreakdown",
    "format_reward",
    "judgment_reward",
    "parse_response",
    "score_parsed",
    "selection_reward",
    "total_reward",
]
