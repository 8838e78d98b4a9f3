"""Train the toy bilinear policy with grouped policy optimization.

Builds a synthetic world of vector-oracle users, trains on next-video
selection (4 candidates, 25% chance level), and reports held-out accuracy.
The whole run takes a few seconds on a laptop.
"""

import numpy as np

from simrec.env import EnvConfig, SyntheticEpisodeSource, derive_seed, generate_synthetic_world
from simrec.grpo import GrpoConfig, ToySoftmaxPolicy, evaluate_policy, train

world, catalog, histories = generate_synthetic_world(
    n_users=40, n_items=300, dim=8, seed=11, history_length=6, pool_size=10
)
source = SyntheticEpisodeSource(world, catalog, histories, EnvConfig(top_k=10, m=3, seed=0))
policy = ToySoftmaxPolicy(world, dim=8)

cfg = GrpoConfig()  # G=16 rollouts per group, KL coefficient 0.001
print(f"group size {cfg.group_size}, clip {cfg.clip_epsilon}, KL coef {cfg.kl_coefficient}")

trace = train(source, policy, cfg, iterations=1500, seed=0, task="selection")
for entry in trace[:: len(trace) // 10]:
    print(
        f"iter {entry['iter']:>4}  mean_reward {entry['mean_reward']:+.3f}  "
        f"in-group accuracy {entry['accuracy']:.2f}"
    )

rng = np.random.default_rng(derive_seed(0, "demo-eval"))
episodes = [source.sample(rng, "selection") for _ in range(400)]
print(f"\nheld-out selection accuracy: {evaluate_policy(policy, episodes):.3f} (chance 0.25)")

oracle = ToySoftmaxPolicy(world, dim=8)
oracle.set_parameters(np.eye(8))
print(f"oracle-reading policy (upper bound): {evaluate_policy(oracle, episodes):.3f}")
