"""Command-line front end.

Subcommands: ``reduce``, ``deriv``, ``certify``, ``invariance``,
``matrosov``, ``simulate``, ``validate-gradient``. Each loads a system
definition JSON file, runs the corresponding analysis, and writes CSV /
JSON / text reports into the output directory.

Exit codes: 0 success (and CERTIFIED / checks passed), 1 analysis
negative (VIOLATED, INCONCLUSIVE, or a failed trajectory check), 2 input
parse error, 3 semantic error.

Runs are deterministic: identical inputs, flags and seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DslSyntaxError, IncredError, SchemaError
from .grids import GridSpec
from .setmaps import (SimSpec, SystemDef, load_system,
                      validate_gradient, _number, _parse_grid, _STRATEGY_KINDS)
# each subcommand imports the analysis modules it uses, and only those

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise SchemaError(f"--grid-file {path}: expected a JSON object")
        grid = _parse_grid(doc.get("grid", doc), system.n, "grid")
        system = replace(system, grid=grid)
    return system


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tol(args, name: str) -> dict:
    """``{name: --tol}``, a finite number, or ``{}`` to keep the default."""
    return {} if args.tol is None else {name: _number(args.tol, "--tol")}


def _report(args, line: str, text: str | None = None) -> None:
    print(line)
    if text and args.verbose:
        print(text, end="")


def cmd_reduce(args) -> int:
    from .reduction import tabulate_reduction
    system = _load(args)
    grid = system.require_grid()
    table = tabulate_reduction(system.inclusion, system.reducers,
                               grid.nodes(system.domain), grid.time_nodes[0])
    out = _outdir(args)
    csv_path = out / "reduction_table.csv"
    text_path = out / "reduction_table.txt"
    # streamed: the two reports together are about 13 MB at 201^2 nodes
    with open(csv_path, "w", encoding="utf-8", newline="") as csv_fh, \
            open(text_path, "w", encoding="utf-8", newline="") as text_fh:
        for csv_chunk, text_chunk in table.report_chunks():
            csv_fh.write(csv_chunk)
            text_fh.write(text_chunk)
    _report(args, f"reduce: {len(table.x)} probes -> {csv_path}")
    if args.verbose:
        with open(text_path, "r", encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, _sys.stdout)
    return EXIT_OK


def cmd_deriv(args) -> int:
    from .derivative import tabulate_derivatives
    from .reduction import _chunks, _reprs
    system = _load(args)
    grid = system.require_grid()
    t0, nodes, n = grid.time_nodes[0], grid.nodes(system.domain), system.n
    value, minus_inf, top, top_inf, lo, hi, empty = tabulate_derivatives(
        system.candidate, system.inclusion, system.reducers, nodes, t0)
    path = _outdir(args) / "derivatives.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"x{i+1}" for i in range(n)] + [
            "t", "generalized", "baseline_max", "baseline_lo",
            "baseline_hi"]) + "\n")
        for rows in _chunks(len(nodes)):  # as ReductionTable._report_chunk
            text, where = _reprs(np.concatenate([nodes[rows].T, [
                value[rows], top[rows], lo[rows], hi[rows]]]))
            where, comma = where.T, text + ","
            cells = np.empty((len(where), n + 5), dtype=object)
            cells[:, :n], cells[:, n] = comma[where[:, :n]], repr(t0) + ","
            cells[:, n + 1:-1] = comma[where[:, n:-1]]
            cells[:, -1] = (text + "\n")[where[:, -1]]
            cells[minus_inf[rows], n + 1] = "-inf,"
            cells[top_inf[rows], n + 2] = "-inf,"
            cells[empty[rows], n + 3:] = ",", "\n"
            fh.write("".join(cells.ravel().tolist()))
    _report(args, f"deriv: wrote {path}")
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
    out = _outdir(args)
    text = certificate.to_text()
    _write_json(out / "certificate.json", certificate.to_dict())
    _write_text(out / "certificate.txt", text)
    _report(args, f"certify: {certificate.verdict} "
            f"({out / 'certificate.json'})", text)
    return EXIT_OK if certificate.certified else EXIT_NEGATIVE


def cmd_invariance(args) -> int:
    from . import certify as cert
    report = cert.invariance_data(_load(args), **_tol(args, "zero_tol"))
    out = _outdir(args)
    _write_json(out / "invariance.json", report.to_dict())
    lines = [report.semidefinite.to_text(),
             f"vanishing-derivative nodes: {len(report.e_nodes)}"]
    for c in report.candidates:
        word = "equilibrium" if c.is_equilibrium else "not an equilibrium"
        lines.append(f"candidate {list(c.point)}: {word}")
    text = "\n".join(lines) + "\n"
    _write_text(out / "invariance.txt", text)
    _report(args, f"invariance: {report.semidefinite.verdict}, "
            f"{len(report.e_nodes)} vanishing nodes "
            f"({out / 'invariance.json'})", text)
    return EXIT_OK if report.semidefinite.certified else EXIT_NEGATIVE


def cmd_matrosov(args) -> int:
    from . import certify as cert
    system = _load(args)
    problem = cert.build_matrosov_problem(system)
    grid = system.require_grid()
    eq_tol = _tol(args, "eq_tol")  # every flag is checked before the chain
    cert._check_zeta_target(args.zeta_target)
    fine = grid.refined(args.verify_factor)
    z_nodes, x_nodes = cert._matrosov_nodes(problem, system, every_z=False)
    chain = cert.matrosov_chain(problem, z_nodes, x_nodes, **eq_tol)
    result = verify = None
    if chain.certified:
        result = cert.matrosov_constants(problem, z_nodes, x_nodes,
                                         zeta_target=args.zeta_target,
                                         **eq_tol)
        if result.certificate.certified and args.verify_factor != 1:
            verify = cert.verify_bound_on_grid(
                problem, system, result.constants, result.zeta, z_nodes, fine)
    bounds = cert.matrosov_derivative_bounds(system, problem)
    doc = {"chain": chain.to_dict(),
           "constants": None if result is None else result.to_dict(),
           "verification": None if verify is None else verify.to_dict(),
           "derivative_bounds": bounds.to_dict()}
    out = _outdir(args)
    _write_json(out / "matrosov.json", doc)
    pieces = [chain.to_text()]
    if result is not None:
        pieces.append(f"constants: {list(result.constants)} "
                      f"zeta={result.zeta!r}\n")
        pieces.append(result.certificate.to_text())
    if verify is not None:
        pieces.append(verify.to_text())
    pieces.append(bounds.to_text())
    text = "".join(pieces)
    _write_text(out / "matrosov.txt", text)
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
    out = _outdir(args)
    write_trajectory_csv(traj, out / "trajectory.csv")

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
    _write_json(out / "diagnostics.json", diagnostics)
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
    reports = []
    all_passed = True
    for f in functions:
        for x in probes:
            rep = validate_gradient(f, x, 0.0, radius=args.radius,
                                    samples=args.samples, seed=args.seed or 0)
            reports.append(rep.to_dict())
            all_passed = all_passed and rep.passed
    out = _outdir(args)
    _write_json(out / "gradient_validation.json",
                {"passed": all_passed, "radius": args.radius,
                 "samples": args.samples, "reports": reports})
    _report(args, f"validate-gradient: {'PASS' if all_passed else 'FAIL'} "
            f"over {len(reports)} probes "
            f"({out / 'gradient_validation.json'})")
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def _default_probes(system: SystemDef) -> list[list[float]]:
    """The first 64 nodes of the grid whose axes are each domain axis's
    ends and center plus the system grid's include coordinates."""
    include = system.grid.include if system.grid else ((),) * system.n
    probes = GridSpec(tuple((iv.lo, iv.center, iv.hi)
                            for iv in system.domain.axes), include)
    return probes.nodes(system.domain)[:64].tolist()


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
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=_sys.stderr)
        return EXIT_PARSE
    except (DslSyntaxError, FileNotFoundError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_PARSE
    except IncredError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
