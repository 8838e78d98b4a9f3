"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same names, with their bounds.
"""

LAYERS = ("bench", "core", "env", "grpo", "rewards", "recommender", "llmclient", "ipagent")
RANKERS = ("popularity", "markov", "embedding", "random")
POLICY_METHODS = ("sample_response", "log_probs", "log_prob_gradients", "render")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
PER_LAYER = {
    # workload-named end-to-end figures, from the untraced rounds of a traced run
    "train_iter_ms_p50": "ms",
    "train_iter_ms_p99": "ms",
    "train_iters_per_s": "1/s",
    "eval_users_per_s": "1/s",
    "episodes_per_s": "1/s",
    "record_requests_per_s": "1/s",
    "replay_requests_per_s": "1/s",
    "augment_items_per_s": "1/s",
    "fail_frac": "ratio",
    # tracing accounts
    "trace_overhead.setup_s": "s",
    "trace_overhead.peak_rss_mb": "MB",
    "trace_overhead.work_per_s": "1/s",
    "trace.untraced_round_s": "s",
    "trace.round_s": "s",
    "trace.uncovered_share": "ratio",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    # core
    "core.load_interactions_s": "s",
    "core.rows_per_s": "1/s",
    # recommender
    "recommender.load_item_features_s": "s",
    **{f"recommender.fit_s.{m}": "s" for m in RANKERS[:3]},
    **{f"recommender.rank_s.{m}": "s" for m in RANKERS},
    **{f"recommender.top_k_calls.{m}": "count" for m in RANKERS},
    **{f"recommender.top_k_ms_p50.{m}": "ms" for m in RANKERS},
    **{f"recommender.top_k_ms_p99.{m}": "ms" for m in RANKERS},
    "recommender.top_k_calls.recall": "count",
    # env
    "env.generate_world_s": "s",
    "env.sample_calls": "count",
    "env.sample_ms_p50": "ms",
    "env.make_episode_ms_p50": "ms",
    "env.export_episodes_s": "s",
    "env.load_episodes_s": "s",
    # grpo
    "grpo.train_self_s": "s",
    **{f"grpo.policy_calls_per_iter.{m}": "count/iter" for m in POLICY_METHODS},
    **{f"grpo.policy_s.{m}": "s" for m in POLICY_METHODS},
    # rewards
    "rewards.total_reward_calls": "count",
    "rewards.score_us_p50": "us",
    # llmclient
    **{f"llmclient.send_calls.{s}": "count" for s in ("record", "replay", "augment")},
    "llmclient.send_ms_p50.record": "ms",
    "llmclient.send_ms_p99.record": "ms",
    "llmclient.overhead_s.record": "s",
    "llmclient.replay_load_s": "s",
    "llmclient.batch_s.replay": "s",
    "llmclient.record_bytes": "bytes",
    "llmclient.retries": "count",
    "llmclient.failures": "count",
    "llmclient.max_in_flight_seen": "count",
    # ipagent
    "ipagent.batch_augment_s": "s",
    "ipagent.load_frame_scores_s": "s",
    "ipagent.select_keyframes_us_p50": "us",
    "ipagent.sends_per_item": "count/item",
    "ipagent.written": "count",
    "ipagent.failed": "count",
    "ipagent.skipped": "count",
}
