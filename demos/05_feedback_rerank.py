"""Feedback-driven augmentation: fold simulated liked videos back into training.

Liked feedback is appended to each named user's training view as a
pseudo-behavior with a fresh ordinal; refitting the generator on the result
shifts its rankings toward what the simulated users endorsed. The bundled
feedback file pairs users with their held-out items, so the direction of the
effect is visible on HR@10.
"""

from pathlib import Path

from simrec.core import load_interactions
from simrec.recommender import augment_with_feedback, evaluate_leave_one_out, fit_markov, load_feedback

data = Path(__file__).resolve().parent.parent / "data" / "synthetic"
catalog, histories = load_interactions(data / "interactions.jsonl")
feedback = load_feedback(data / "feedback.jsonl")
views = [h.training_view() for h in histories]

before = evaluate_leave_one_out(fit_markov(views, catalog), histories, ks=(10, 20))["all"]
augmented = augment_with_feedback(views, feedback, catalog)
after = evaluate_leave_one_out(fit_markov(augmented, catalog), histories, ks=(10, 20))["all"]

print(f"{len(feedback)} liked-feedback pairs over {len(histories)} users\n")
print(f"{'metric':<10} {'before':>8} {'after':>8}")
for k in (10, 20):
    print(f"HR@{k:<7} {before.hr[k]:>8.4f} {after.hr[k]:>8.4f}")
    print(f"NDCG@{k:<5} {before.ndcg[k]:>8.4f} {after.ndcg[k]:>8.4f}")

targets = {h.user: h.target().item for h in histories}
on_target = sum(targets.get(user) == item for user, item in feedback)
print(f"\n{on_target} of the {len(feedback)} feedback pairs name the user's held-out target, so 'after'")
print("shows that refitting on appended pseudo-behaviors moves the liked items up the ranking;")
print("it does not measure what feedback that leaves the targets out would gain.")
