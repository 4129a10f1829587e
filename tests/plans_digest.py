"""Print the digest of the `plans` bench workload's plans, one line a seed.

    python tests/plans_digest.py 1 7 23

Run from the repository root.  It builds the workload's inputs from each
seed and runs its round as `perfbench/run.py` does (`perfbench/workloads.py`),
then prints the seed, the verified plan count and the first 12 hex digits of
`oracles.plans_digest` over the plans.  Two trees whose plans keep every bit
print the same lines.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from oracles import plans_digest  # noqa: E402


def main(seeds: list[int]) -> None:
    wl = workloads.WORKLOADS["plans"]
    for seed in seeds:
        rnd = wl.run(wl.build(seed))
        plans = rnd.outputs["plans"]
        print(f"seed {seed}: {len(plans)} plans, {plans_digest(plans)[:12]}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [1])
