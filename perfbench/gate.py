"""Output gate: each CLI call must reproduce the seed commit's output.

A call is observed as its exit code, its verdict line (the first line it
prints, with the output directory replaced by ``<out>``) and the SHA-256
of every file it wrote to ``--out``. golden.json holds the observation of
every call the workloads can make, recorded at the seed commit by
make_golden.py. Reports are promised byte-identical across reruns, so
any difference counts the call as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_call(main, argv: list[str],
             out_dir: Path) -> tuple[int | str, str, float]:
    """Run ``main(argv + ['-o', out_dir])``; return exit code, stdout, seconds.

    A call that raises is recorded with the exception's type name as its
    exit code, so it fails the gate instead of stopping the benchmark.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main([*argv, "-o", str(out_dir)])
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # noqa: BLE001 - a crash is a failed operation
        rc = f"raised {type(e).__name__}"
    return rc, buf.getvalue(), time.perf_counter() - t0


def observe(rc, stdout: str, out_dir: Path) -> dict:
    lines = stdout.splitlines()
    verdict = lines[0].replace(str(out_dir), "<out>") if lines else ""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": rc, "verdict": verdict, "files": files}


def mismatches(observed: dict, expected: dict | None) -> list[str]:
    """What differs between an observation and its reference; [] if none."""
    if expected is None:
        return ["no reference output recorded for this call"]
    diffs = []
    if observed["exit"] != expected["exit"]:
        diffs.append(f"exit {observed['exit']!r} != {expected['exit']!r}")
    if observed["verdict"] != expected["verdict"]:
        diffs.append(f"verdict {observed['verdict']!r} != "
                     f"{expected['verdict']!r}")
    for name in sorted(set(observed["files"]) | set(expected["files"])):
        got = observed["files"].get(name)
        want = expected["files"].get(name)
        if got != want:
            diffs.append(f"{name}: sha256 {got} != {want}")
    return diffs


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)
