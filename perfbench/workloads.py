"""The benchmark's workloads: which CLI calls one pass makes, from a seed.

Every call goes through ``incred.cli.main``, the code users run. Input
paths are relative to the repository root, which is the working
directory while the benchmark runs.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

FIXTURES = "src/incred/fixtures"

# ``simulate`` initial states: a lattice strictly inside example3's
# domain box [-2, 2]^2. The seed draws from this finite pool so that
# every state it can draw has a recorded seed-commit output in
# golden.json; the lattice avoids the guard surfaces x = 0 and |x| = 1.
SIM_LATTICE = (-1.5, -0.9, -0.3, 0.3, 0.9, 1.5)
SIM_POOL = tuple((a, b) for a in SIM_LATTICE for b in SIM_LATTICE)
SIM_STATES_PER_PASS = 4

NAMES = ("certify-scan", "reduce-table", "matrosov", "simulate")

# The system file each workload loads; set-up time is measured on it.
SYSTEM_FILE = {
    "certify-scan": f"{FIXTURES}/example6.json",
    "reduce-table": f"{FIXTURES}/example2.json",
    "matrosov": f"{FIXTURES}/example6.json",
    "simulate": f"{FIXTURES}/example3.json",
}


def simulate_call(x0: tuple[float, float]) -> list[str]:
    # ``--x0=a,b`` and not ``--x0 a,b``: argparse reads a value that
    # starts with '-' as a flag and exits 2.
    return ["simulate", "-i", SYSTEM_FILE["simulate"],
            f"--x0={x0[0]!r},{x0[1]!r}"]


def calls(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass of ``workload``, without ``-o``."""
    if workload == "certify-scan":
        return [["certify", "-i", SYSTEM_FILE[workload], "--grid", "201"]]
    if workload == "reduce-table":
        return [["reduce", "-i", SYSTEM_FILE[workload], "--grid", "201"]]
    if workload == "matrosov":
        return [["matrosov", "-i", SYSTEM_FILE[workload]]]
    if workload == "simulate":
        rng = random.Random(seed)
        return [simulate_call(x0)
                for x0 in rng.sample(SIM_POOL, SIM_STATES_PER_PASS)]
    raise ValueError(f"unknown workload {workload!r}")


def all_calls() -> list[list[str]]:
    """Every call any seed can make; golden.json records each of them."""
    out = [c for w in NAMES if w != "simulate" for c in calls(w, 0)]
    return out + [simulate_call(x0) for x0 in SIM_POOL]


def items(workload: str, verdict: str, out_dir: Path) -> int:
    """Work items one call completed, read from its verdict and reports.

    An item is a node-time pair (certify-scan), a probe (reduce-table), a
    fine-grid verification row (matrosov) or an integration step
    (simulate).
    """
    if workload == "certify-scan":
        grid = json.loads((out_dir / "certificate.json").read_text())["grid"]
        return grid["total_nodes"] * len(grid["time_nodes"])
    if workload == "reduce-table":
        return int(re.match(r"reduce: (\d+) probes", verdict).group(1))
    if workload == "matrosov":
        doc = json.loads((out_dir / "matrosov.json").read_text())
        grid = doc["verification"]["grid"]
        uses_z = doc["chain"]["details"]["aux_uses_z"]
        return grid["x_nodes"] * (grid["z_nodes"] if uses_z else 1)
    if workload == "simulate":
        return int(re.match(r"simulate: (\d+) steps", verdict).group(1))
    raise ValueError(f"unknown workload {workload!r}")
