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
