"""Record the reference outputs that the benchmark's checks compare against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It rewrites perfbench/recorded.json with, for every input seed, the social
cost of the scaled equilibrium and the converged step of the long drain.
Takes about seven minutes on two cores.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lbgame  # noqa: E402

from workloads import RECORDED_PATH, RECORDED_SEEDS, LongDrain, ScaledEquilibrium  # noqa: E402


def main() -> int:
    costs, converged = [], []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for seed in range(RECORDED_SEEDS):
            costs.append(ScaledEquilibrium(lbgame, seed, Path(tmp)).run()["cost"])
            converged.append(LongDrain(lbgame, seed, Path(tmp)).run().converged_at)
            print(f"seed={seed} social_cost={costs[-1]!r} converged_at={converged[-1]}", flush=True)
    payload = {
        "scaled_equilibrium": {"social_cost": costs},
        "long_drain": {"converged_at": converged},
    }
    RECORDED_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
