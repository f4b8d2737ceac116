"""Record golden.json: the reference output of every benchmark call.

Usage, from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/make_golden.py

A change that is meant to keep reports byte-identical must never need
this. Run it only for a change that alters report bytes on purpose, and
say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import incred.cli

    out_dir = ROOT / ".bench_work" / "golden"
    golden = {}
    for argv in workloads.all_calls():
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, stdout, _ = gate.run_call(incred.cli.main, argv, out_dir)
        golden[gate.call_key(argv)] = gate.observe(rc, stdout, out_dir)
        print(f"{rc}  {gate.call_key(argv)}", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    gate.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
