"""Score agent transcripts with the verifiable reward tables.

Walks through the two-tag transcript convention and shows how format
compliance and task correctness combine into a single scalar reward.
"""

from simrec.core import CandidateSet, Judgment, Selection
from simrec.rewards import total_reward

judgment = Judgment(item="v042", label="like")
selection = Selection(
    candidates=CandidateSet(
        positive="v042",
        negatives=("v007", "v019", "v023"),
        presentation_order=("v007", "v042", "v019", "v023"),
        rng_seed=0,
    ),
    captions=("city biking", "midnight ramen run", "chess traps", "desert timelapse"),
)

print("=== judgment task (truth: like) ===")
for raw in [
    "<think>(1) User_status: loves food videos</think><answer>Yes</answer>",
    "<answer>Yes</answer><think>afterthought</think>",
    "<think>hmm</think><answer>not sure</answer>",
    "free-form rambling with no tags",
]:
    b = total_reward(raw, judgment, "like")
    print(f"  format={b.r_format:+.1f} task={b.r_task:+.1f} total={b.total:+.1f}  <- {raw[:52]!r}")

print("\n=== selection task (truth: candidate 2) ===")
for raw in [
    "<think>(1) User_status: night-owl snacker</think><answer>(2) Next_video: 2</answer>",
    "<think>t</think><answer>midnight ramen run</answer>",
    "<think>t</think><answer>4</answer>",
    "<think>t</think><answer>maybe the first?</answer>",
]:
    b = total_reward(raw, selection, 2)
    print(f"  format={b.r_format:+.1f} task={b.r_task:+.1f} total={b.total:+.1f}  <- {raw[:52]!r}")

print("\nTotals stay inside [-2, 2] for judgment and [-3, 3] for selection.")
