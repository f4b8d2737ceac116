"""Command-line front end.

Subcommands: ``reduce``, ``deriv``, ``certify``, ``invariance``,
``matrosov``, ``simulate``, ``validate-gradient``. Each loads a system
definition JSON file, runs the corresponding analysis, and writes CSV /
JSON / text reports into the output directory.

Exit codes: 0 success (and CERTIFIED / checks passed), 1 analysis
negative (VIOLATED, INCONCLUSIVE, or a failed trajectory check), 2 input
parse error or a file that cannot be read or written, 3 semantic error.

Runs are deterministic: identical inputs, flags and seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DslSyntaxError, IncredError, InputFileError, SchemaError
from .grids import GridSpec, _region
from .setmaps import (SimSpec, SystemDef, load_system, validate_gradient,
                      _number, _parse_grid, _read_json, _tolerance,
                      _STRATEGY_KINDS)
# each subcommand imports the analysis modules it uses, and only those

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


def _open(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: Path, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load(args) -> SystemDef:
    """The system file, with the --baseline, --grid and --grid-file
    overrides of subcommands that declare them."""
    system = load_system(args.input)
    if getattr(args, "baseline", False):
        if not system.candidate.regular:
            raise SchemaError(
                "--baseline needs a regular candidate function")
        system = replace(system, reducers=(system.candidate,))
    count = getattr(args, "grid", None)
    path = getattr(args, "grid_file", None)
    if count is not None and path is not None:
        raise SchemaError("give at most one of --grid and --grid-file")
    if count is not None:
        base = system.grid
        if base is None:
            base = GridSpec((count,) * system.n, ((),) * system.n)
        system = replace(system, grid=base.with_uniform_counts(count))
    elif path is not None:
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise SchemaError(f"--grid-file {path}: expected a JSON object")
        grid = _parse_grid(doc.get("grid", doc), system.n, "grid")
        system = replace(system, grid=grid)
    return system


def _tol(args, name: str, check=_number) -> dict:
    """``{name: --tol}`` as ``check`` passes it (a finite number; a
    tolerance is >= 0 too), or ``{}`` to keep the default."""
    return {} if args.tol is None else {name: check(args.tol, "--tol")}


def _report(args, line: str, text: str | None = None) -> None:
    print(line)
    if text and args.verbose:
        print(text, end="")


@contextlib.contextmanager
def _writing(args, *names: str):
    """The paths to write the reports ``names`` of the output directory
    to: ``.part`` names, renamed into place once the block ends. A block
    that raises leaves the directory as it found it: its ``.part`` files
    are removed, and so is each directory made for them, so no report is
    left half written and none of an earlier run is touched."""
    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]
    parts = [out / f"{name}.part" for name in names]
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield parts
    except BaseException:
        for p in parts:
            p.unlink(missing_ok=True)
        for d in made:  # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    for p, name in zip(parts, names):
        os.replace(p, out / name)


def cmd_reduce(args) -> int:
    from .reduction import _csv_header, _reduction_job, _reporter, _stream
    system = _load(args)
    grid = system.require_grid()
    nodes, t0 = _region(grid.checked_axes(system.domain)), grid.time_nodes[0]
    report = _reporter(system.n, t0)
    # streamed: the two reports together are about 13 MB at 201^2 nodes
    with _writing(args, "reduction_table.csv", "reduction_table.txt") as (
            csv_part, text_part), _open(csv_part) as csv_fh, \
            _open(text_part) as text_fh:
        csv_fh.write(_csv_header(system.n))

        def fold(j, rows, x, columns):
            csv, text = report(x, *(c[..., 0, :] for c in columns))
            csv_fh.write(csv)
            text_fh.write(text)

        _stream([_reduction_job(system.inclusion, system.reducers,
                                grid.dims)], nodes, (t0,), fold)
    out = Path(args.out) / "reduction_table"
    _report(args, f"reduce: {nodes[1]} probes -> {out}.csv")
    if args.verbose:
        with open(f"{out}.txt", "r", encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, _sys.stdout)
    return EXIT_OK


def cmd_deriv(args) -> int:
    from .derivative import _table_job
    from .reduction import _reprs, _stream
    system = _load(args)
    grid, n = system.require_grid(), system.n
    nodes, t0 = _region(grid.checked_axes(system.domain)), grid.time_nodes[0]
    with _writing(args, "derivatives.csv") as (part,), _open(part) as fh:
        fh.write(",".join([f"x{i+1}" for i in range(n)] + [
            "t", "generalized", "baseline_max", "baseline_lo",
            "baseline_hi"]) + "\n")

        def fold(j, rows, x, columns):  # as reduction._reporter
            value, minus_inf, top, top_inf, lo, hi, empty = (
                c[0] for c in columns)
            text, where = _reprs(np.concatenate([x, [value, top, lo, hi]]))
            where, comma = where.T, text + ","
            cells = np.empty((len(where), n + 5), dtype=object)
            cells[:, :n], cells[:, n] = comma[where[:, :n]], repr(t0) + ","
            cells[:, n + 1:-1] = comma[where[:, n:-1]]
            cells[:, -1] = (text + "\n")[where[:, -1]]
            cells[minus_inf, n + 1] = "-inf,"
            cells[top_inf, n + 2] = "-inf,"
            cells[empty, n + 3:] = ",", "\n"
            fh.write("".join(cells.ravel().tolist()))

        _stream([_table_job(system.candidate, system.inclusion,
                            system.reducers, grid.dims)], nodes, (t0,), fold)
    _report(args, f"deriv: wrote {Path(args.out) / 'derivatives.csv'}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import certify as cert
    system = _load(args)
    checks = system.checks
    if checks is not None and checks.decrease_bound is not None:
        check, bound = cert.certify_lyapunov, checks.decrease_bound
    elif checks is not None and checks.semidef_bound is not None:
        check, bound = cert.certify_semidefinite, checks.semidef_bound
    else:
        raise SchemaError(
            "certify needs a 'certify' block with a 'W' or 'W_semidef' "
            "expression")
    certificate = check(system, bound, sandwich=checks.sandwich,
                        **_tol(args, "tol"))
    out, text = Path(args.out), certificate.to_text()
    with _writing(args, "certificate.json", "certificate.txt") as (js, txt):
        _write_json(js, certificate.to_dict())
        _write_text(txt, text)
    _report(args, f"certify: {certificate.verdict} "
            f"({out / 'certificate.json'})", text)
    return EXIT_OK if certificate.certified else EXIT_NEGATIVE


def cmd_invariance(args) -> int:
    from . import certify as cert
    report = cert.invariance_data(_load(args),
                                  **_tol(args, "zero_tol", _tolerance))
    out = Path(args.out)
    lines = [report.semidefinite.to_text(),
             f"vanishing-derivative nodes: {len(report.e_nodes)}"]
    for c in report.candidates:
        word = "equilibrium" if c.is_equilibrium else "not an equilibrium"
        lines.append(f"candidate {list(c.point)}: {word}")
    text = "\n".join(lines) + "\n"
    with _writing(args, "invariance.json", "invariance.txt") as (js, txt):
        _write_json(js, report.to_dict())
        _write_text(txt, text)
    _report(args, f"invariance: {report.semidefinite.verdict}, "
            f"{len(report.e_nodes)} vanishing nodes "
            f"({out / 'invariance.json'})", text)
    return EXIT_OK if report.semidefinite.certified else EXIT_NEGATIVE


def cmd_matrosov(args) -> int:
    from . import certify as cert
    system = _load(args)
    eq_tol = _tol(args, "eq_tol", _tolerance)  # every flag before a walk
    cert._check_zeta_target(args.zeta_target)
    fine = None if args.verify_factor == 1 else replace(
        system, grid=system.require_grid().refined(args.verify_factor))
    # fine first: its z nodes are the system's, and only one copy is held
    fine_x = None if fine is None else cert.matrosov_grid(fine)[1]
    z_nodes, x_nodes = cert.matrosov_grid(system)
    chain = cert.matrosov_chain(system, z_nodes, x_nodes, **eq_tol)
    result = verify = None
    if chain.certified:
        result = cert.matrosov_constants(system, z_nodes, x_nodes,
                                         zeta_target=args.zeta_target,
                                         **eq_tol)
        if result.certificate.certified and fine is not None:
            verify = cert.verify_combined_bound(
                fine, result.constants, result.zeta, z_nodes, fine_x)
    bounds = cert.matrosov_derivative_bounds(system, x_nodes)
    doc = {"chain": chain.to_dict(),
           "constants": None if result is None else result.to_dict(),
           "verification": None if verify is None else verify.to_dict(),
           "derivative_bounds": bounds.to_dict()}
    out = Path(args.out)
    pieces = [chain.to_text()]
    if result is not None:
        pieces.append(f"constants: {list(result.constants)} "
                      f"zeta={result.zeta!r}\n")
        pieces.append(result.certificate.to_text())
    if verify is not None:
        pieces.append(verify.to_text())
    pieces.append(bounds.to_text())
    text = "".join(pieces)
    with _writing(args, "matrosov.json", "matrosov.txt") as (js, txt):
        _write_json(js, doc)
        _write_text(txt, text)
    ok = chain.certified and result is not None \
        and result.certificate.certified \
        and (verify is None or verify.certified)
    _report(args, f"matrosov: chain {chain.verdict}"
            + (f", constants {result.certificate.verdict}" if result else "")
            + f" ({out / 'matrosov.json'})", text)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_simulate(args) -> int:
    from .simulate import (SelectionStrategy, integrate, write_trajectory_csv,
                           check_lyapunov_descent, check_partial_convergence,
                           check_reduction_membership)
    system, tol = _load(args), _tol(args, "tol")
    flags = {"t0": args.t0, "h": args.h, "horizon": args.T,
             "strategy": args.strategy, "seed": args.seed,
             "tail_fraction": args.tail_fraction}  # SimSpec field -> flag
    sim = replace(system.sim or SimSpec(),
                  **{k: v for k, v in flags.items() if v is not None})
    if args.x0 is not None:
        try:
            sim = replace(sim, x0=tuple(map(float, args.x0.split(","))))
        except ValueError:
            raise SchemaError("--x0: expected comma-separated numbers, got "
                              f"{args.x0!r}") from None
    if sim.x0 is None:
        raise SchemaError("simulate needs --x0 or a 'simulate' block "
                          "with an 'x0' entry")
    strategy = SelectionStrategy(kind=sim.strategy, seed=sim.seed)

    traj = integrate(system, sim.x0, sim.t0, sim.h, sim.horizon, strategy)
    membership = check_reduction_membership(traj, system, **tol)

    diagnostics = {
        "x0": list(sim.x0), "t0": sim.t0, "h": sim.h, "T": sim.horizon,
        "strategy": strategy.kind, "seed": strategy.seed,
        "final_t": traj.final_t, "final_x": list(traj.final_x),
        "final_norm": traj.final_norm, "exited": traj.exited,
        "membership": membership.to_dict(),
    }
    passed = membership.passed
    checks = system.checks
    if checks is not None and checks.decrease_bound is not None:
        descent = check_lyapunov_descent(traj, system, checks.decrease_bound)
        diagnostics["descent"] = descent.to_dict()
        passed = passed and descent.passed
    if checks is not None and checks.semidef_bound is not None:
        tail = check_partial_convergence(traj, system, checks.semidef_bound,
                                         sim.tail_fraction, sim.tail_threshold)
        diagnostics["tail"] = tail.to_dict()
        passed = passed and tail.passed
    diagnostics["checks_passed"] = passed
    out = Path(args.out)
    with _writing(args, "trajectory.csv",
                  "diagnostics.json") as (traj_csv, js):
        write_trajectory_csv(traj, traj_csv)
        _write_json(js, diagnostics)
    _report(args, f"simulate: {len(traj.rows)} steps, final norm "
            f"{traj.final_norm:.6g}, checks_passed={passed} "
            f"({out / 'diagnostics.json'})")
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_validate_gradient(args) -> int:
    system = _load(args)
    functions = [system.candidate, *system.reducers]
    if system.matrosov is not None:
        functions.extend(system.matrosov.functions)
        for coll in system.matrosov.collections:
            functions.extend(coll)
    probes = _default_probes(system)
    times = system.grid.time_nodes if system.grid else (0.0,)
    reports, all_passed = [], True
    for f, t, x in itertools.product(functions, times, probes):
        rep = validate_gradient(f, x, t, radius=args.radius,
                                samples=args.samples, seed=args.seed or 0)
        reports.append(rep.to_dict())
        all_passed = all_passed and rep.passed
    out = Path(args.out)
    with _writing(args, "gradient_validation.json") as (part,):
        _write_json(part, {"passed": all_passed, "radius": args.radius,
                           "samples": args.samples, "reports": reports})
    _report(args, f"validate-gradient: {'PASS' if all_passed else 'FAIL'} "
            f"over {len(reports)} probes "
            f"({out / 'gradient_validation.json'})")
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def _default_probes(system: SystemDef) -> list[list[float]]:
    """The first 64 nodes of the walk of the grid whose axes are each
    domain axis's ends and center plus the system grid's includes."""
    include = system.grid.include if system.grid else ((),) * system.n
    probes = GridSpec(tuple((iv.lo, iv.center, iv.hi)
                            for iv in system.domain.axes), include)
    walk, _ = _region(probes.axis_nodes(system.domain))
    return list(itertools.islice(itertools.chain.from_iterable(
        chunk.T.tolist() for chunk in walk()), 64))


# Options several subcommands share; each declares only those it reads.
_FLAGS = {
    ("--grid",): dict(type=int, metavar="N",
                      help="override: uniform N nodes per axis"),
    ("--grid-file",): dict(metavar="PATH",
                           help="override: grid block from a JSON file"),
    ("--tol",): dict(type=float, help="tolerance override (meaning "
                     "depends on the subcommand)"),
    ("--seed",): dict(type=int, help="random seed"),
    ("--baseline",): dict(action="store_true", help="use the candidate "
                          "function as the only reducer"),
    ("--verbose", "-v"): dict(action="store_true",
                              help="also print the text report"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incred",
        description="Reduced differential inclusions: reduction tables, "
                    "set-valued derivatives, grid certificates, Matrosov "
                    "chains, and selection-based simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, flags):
        """A subparser with --input, --out and the named ``_FLAGS``."""
        # no abbreviations: "--grid" must not stand for "--grid-file"
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--input", "-i", required=True,
                       help="system definition JSON file")
        p.add_argument("--out", "-o", default="out",
                       help="output directory (default: ./out)")
        for names, kwargs in _FLAGS.items():
            if names[0] in flags.split():
                p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
        return p

    subcommand("reduce", cmd_reduce, "tabulate the reduced inclusion",
               "--grid --grid-file --baseline --verbose")
    subcommand("deriv", cmd_deriv, "tabulate derivative values",
               "--grid --grid-file --baseline")
    subcommand("certify", cmd_certify, "grid-certify the decrease condition",
               "--grid --grid-file --tol --baseline --verbose")
    subcommand("invariance", cmd_invariance, "vanishing set and equilibrium "
               "screening (autonomous)",
               "--grid --grid-file --tol --baseline --verbose")

    p = subcommand("matrosov", cmd_matrosov, "Matrosov chain and constants",
                   "--grid --grid-file --tol --verbose")
    p.add_argument("--zeta-target", type=float, default=None,
                   help="override the estimated decay level")
    p.add_argument("--verify-factor", type=int, default=10,
                   help="refinement factor for the verification grid "
                        "(default 10; 1 disables)")

    p = subcommand("simulate", cmd_simulate,
                   "integrate a trajectory and check it",
                   "--tol --seed --baseline")
    p.add_argument("--x0", default=None,
                   help="initial state, comma separated")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--h", type=float, default=None, help="step size")
    p.add_argument("--T", type=float, default=None, help="final time")
    p.add_argument("--strategy", default=None, choices=_STRATEGY_KINDS)
    p.add_argument("--tail-fraction", type=float, default=None)

    p = subcommand("validate-gradient", cmd_validate_gradient,
                   "finite-difference check of declared gradients",
                   "--grid-file --seed")
    p.add_argument("--radius", type=float, default=2e-5,
                   help="sampling ball radius (default 2e-5)")
    p.add_argument("--samples", type=int, default=200,
                   help="samples per probe point (default 200)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out)  # a file in -o's way fails before the analysis
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            raise NotADirectoryError(f"-o {out}: {found} is not a directory")
        return args.func(args)
    except (DslSyntaxError, InputFileError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_PARSE
    except IncredError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
