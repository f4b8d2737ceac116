import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from incred.cli import main
from incred.fixtures import fixture_path

from scans import grid_nodes


def run(*argv):
    return main(list(argv))


def out_files(path):
    return sorted(p.name for p in path.iterdir())


# flags a subcommand does not read, so it does not declare them
_UNREAD_FLAGS = [
    *((c, ("--seed", "1")) for c in ("reduce", "deriv", "certify",
                                     "invariance", "matrosov")),
    *((c, ("--tol", "0.1")) for c in ("reduce", "deriv",
                                      "validate-gradient")),
    *((c, ("-v",)) for c in ("deriv", "simulate", "validate-gradient")),
    ("simulate", ("--grid", "5")),
    ("simulate", ("--grid-file", "grid.json")),
    ("validate-gradient", ("--grid", "5")),
    ("matrosov", ("--baseline",)),
    ("validate-gradient", ("--baseline",)),
]


class TestExitCodes:
    def test_certified_run_exits_zero(self, tmp_path):
        code = run("certify", "-i", fixture_path("example2"),
                   "-o", str(tmp_path))
        assert code == 0

    def test_violated_run_exits_one(self, tmp_path):
        code = run("certify", "-i", fixture_path("example2_baseline"),
                   "-o", str(tmp_path))
        assert code == 1

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run("certify", "-i", str(bad), "-o", str(tmp_path)) == 2

    def test_expression_syntax_error_exits_two(self, tmp_path):
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["F"]["pieces"][0]["value"] = ["{2*sgn(x1 - 1)"]
        bad = tmp_path / "bad_expr.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("reduce", "-i", str(bad), "-o", str(tmp_path)) == 2

    def test_unknown_key_exits_three(self, tmp_path):
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["surprise"] = True
        bad = tmp_path / "bad_key.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run("reduce", "-i", str(bad), "-o", str(tmp_path)) == 3

    def test_missing_analysis_block_exits_three(self, tmp_path):
        code = run("certify", "-i", fixture_path("example1"),
                   "-o", str(tmp_path))
        assert code == 3

    def test_missing_file_exits_two(self, tmp_path):
        assert run("certify", "-i", str(tmp_path / "nope.json"),
                   "-o", str(tmp_path)) == 2

    @pytest.mark.parametrize("block, key, value, argv, named", [
        ("grid", "time_nodes", ["x"], (), "grid.time_nodes[0]"),
        ("grid", "include", [[-1, "a"], [0]], (), "grid.include[0][1]"),
        ("certify", "zero_tol", "abc", (), "certify.zero_tol"),
        ("simulate", "h", None, (), "simulate.h"),
        ("simulate", "seed", 1.5, (), "simulate.seed"),
        (None, "n", True, (), "n must be"),
        (None, None, None, ("--x0=a,b",), "--x0"),
        ("domain", "lo", [3, -2], (), "domain.lo[0] = 3.0 is above"),
        (None, "grid", 5, (), "grid: expected an object"),
    ], ids=["time_nodes", "include", "zero_tol", "h", "seed", "n", "x0",
            "domain", "grid"])
    def test_malformed_value_exits_three(self, tmp_path, capsys, block, key,
                                         value, argv, named):
        with open(fixture_path("example3"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if key is not None:
            (doc[block] if block else doc)[key] = value
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = run("simulate", "-i", str(bad), "-o", str(tmp_path), *argv)
        err = capsys.readouterr().err
        assert code == 3
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command, name, argv, block_seed", [
        ("simulate", "example3", ("--x0=0.5,0.5", "--strategy",
                                  "random-extreme", "--seed", "-1"), None),
        ("simulate", "example3", ("--x0=0.5,0.5", "--strategy",
                                  "random-extreme"), -5),
        ("validate-gradient", "example2", ("--seed", "-1"), None),
    ], ids=["simulate_flag", "simulate_block", "validate_gradient"])
    def test_negative_seed_exits_three(self, tmp_path, capsys, command, name,
                                       argv, block_seed):
        with open(fixture_path(name), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if block_seed is not None:
            doc.setdefault("simulate", {})["seed"] = block_seed
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run(command, "-i", str(system), "-o", str(tmp_path / "out"),
                   *argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "seed" in err and f">= 0, got {block_seed or -1}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid_doc, f_value, named", [
        ([1, 2], None, "grid.json: expected a JSON object"),
        (None, "{exp(1000*x1)}", "exp(2000.0) has no finite value"),
    ], ids=["grid_file_not_object", "exp_overflow"])
    def test_hostile_input_exits_three(self, tmp_path, capsys, grid_doc,
                                       f_value, named):
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        argv = []
        if grid_doc is not None:
            gridfile = tmp_path / "grid.json"
            gridfile.write_text(json.dumps(grid_doc), encoding="utf-8")
            argv = ["--grid-file", str(gridfile)]
        if f_value is not None:
            doc["F"]["pieces"][0]["value"] = [f_value]
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run("reduce", "-i", str(system), "-o", str(tmp_path / "out"),
                   *argv)
        err = capsys.readouterr().err
        assert code == 3
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("name, argv, named", [
        ("example3", ("reduce", "--grid", "100000"),
         f"(100000 x 100000 nodes x 1 time nodes): {100000 ** 2 * 1} "),
        ("example6", ("certify", "--grid", "100000"),
         f"(100000 x 100000 nodes x 3 time nodes): {100000 ** 2 * 3} "),
        ("example6", ("matrosov", "--verify-factor", "1000000"),
         f"x 3 time nodes): {(50 * 1000000 + 1) ** 2 * 3} "),
        ("example3", ("simulate", "--T", "1e300"),
         f"(T - t0)/h: {(1e300 - 0.0) / 0.001!r} "),
    ], ids=["reduce", "certify", "matrosov", "simulate"])
    def test_oversized_run_exits_three(self, tmp_path, capsys, monkeypatch,
                                       name, argv, named):
        import incred.simulate
        from incred.grids import GridSpec

        axis_nodes = GridSpec.axis_nodes

        def small_axes(grid, *args):
            sizes = [ax if isinstance(ax, int) else len(ax)
                     for ax in grid.axes]
            assert math.prod(sizes) <= 10 ** 6, "large grid built"
            return axis_nodes(grid, *args)

        def no_step(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr(GridSpec, "axis_nodes", small_axes)
        monkeypatch.setattr(incred.simulate, "_kernel", no_step)
        code = run(argv[0], "-i", fixture_path(name), "-o", str(tmp_path),
                   *argv[1:])
        err = capsys.readouterr().err
        assert code == 3
        assert named + "exceeds the limit of 10000000" in err

    @pytest.mark.parametrize("phi, z_counts, reads_z, factor", [
        (["0", "0"], [10 ** 4, 10 ** 4], (), None),
        (["0"], [5001], (0,), 1),
        (["0"], [400], (0, 1), 10),
    ], ids=["z_nodes", "zx_rows", "verification_rows"])
    def test_oversized_matrosov_exits_three(self, tmp_path, capsys,
                                            monkeypatch, phi, z_counts,
                                            reads_z, factor):
        """The z node count, and the (z, x) row counts of the chain and of
        the verification on the grid ``factor`` times finer, are checked
        before any Y is evaluated and before a large grid is walked."""
        import incred.certify as cert
        import incred.grids as grids
        from incred.setmaps import load_system

        with open(fixture_path("example6"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["matrosov"].update(phi=phi, z_counts=z_counts)
        for k in reads_z:  # a Y reads z, so every z node is tabulated
            doc["matrosov"]["Y"][k] += " + 0*z1"
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        if factor is None:
            named = (f"matrosov z nodes (z_counts 10000 x 10000): "
                     f"{10 ** 8} ")
        else:
            sys_def = load_system(str(system))
            z, x = cert.matrosov_grid(cert.build_matrosov_problem(sys_def),
                                      replace(sys_def, grid=sys_def.grid
                                              .refined(factor)))
            named = (f"matrosov (z, x) rows ({z[1]} z nodes x {x[1]} "
                     f"x nodes): {z[1] * x[1]} ")

        region_masks = grids._region_masks

        def small_walk(axes, region):
            assert math.prod(map(len, axes)) <= 10 ** 6, "large grid walked"
            return region_masks(axes, region)

        def no_y(pairs, names):
            raise AssertionError("Y evaluated before the size check")

        monkeypatch.setattr(grids, "_region_masks", small_walk)
        monkeypatch.setattr(cert, "_expression_job", no_y)
        code = run("matrosov", "-i", str(system), "-o", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 3
        assert named + "exceeds the limit of 10000000" in err

    @pytest.mark.parametrize("command", ["certify", "matrosov", "simulate"])
    def test_raising_parameter_names_itself_and_the_time(self, tmp_path,
                                                          capsys, command):
        with open(fixture_path("example6"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["params"]["g"] = "0.5*exp(-t) + 1/(t - 1)"  # no value at t = 1
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run(command, "-i", str(system), "-o", str(tmp_path / "out"))
        assert code == 3
        assert capsys.readouterr().err == (
            "error: parameter g at t=1.0: division by near-zero "
            "denominator 0.0\n")

    def test_include_nodes_count_toward_the_grid_size(self, tmp_path,
                                                      capsys):
        include = [-2 + 4 * k / 4001 for k in range(1, 4001)]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"counts": [2, 2],
                                    "include": [include, include]}),
                        encoding="utf-8")
        code = run("certify", "-i", fixture_path("example2"),
                   "-o", str(tmp_path / "out"), "--grid-file", str(grid))
        assert code == 3
        assert capsys.readouterr().err == (
            "error: grid node-time pairs (4002 x 4002 nodes x 1 time "
            "nodes): 16016004 exceeds the limit of 10000000\n")

    @pytest.mark.parametrize("value, shown", [
        ("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf")])
    def test_zeta_target_must_be_finite_and_positive(self, tmp_path, capsys,
                                                     value, shown):
        # a level <= 0 would certify Z <= +0.5 or Z <= -0.0, not decay
        code = run("matrosov", "-i", fixture_path("example6"),
                   "-o", str(tmp_path), "--verify-factor", "1",
                   f"--zeta-target={value}")
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: zeta_target must be finite and > 0, got {shown}\n")

    @pytest.mark.parametrize("factor", ["0", "-3"])
    def test_verify_factor_below_one_exits_three(self, tmp_path, capsys,
                                                 factor):
        # only 1 disables the verification grid
        code = run("matrosov", "-i", fixture_path("example6"),
                   "-o", str(tmp_path), f"--verify-factor={factor}")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: refinement factor must be >= 1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, name", [
        ("certify", "example2_baseline"), ("invariance", "example2_baseline"),
        ("matrosov", "example6"), ("simulate", "example3")])
    def test_nonfinite_tol_exits_three(self, tmp_path, capsys, command, name,
                                       value):
        # example2_baseline is VIOLATED: an infinite tol would certify it
        code = run(command, "-i", fixture_path(name), "-o", str(tmp_path),
                   f"--tol={value}")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: --tol: expected a finite number\n")
        assert not list(tmp_path.iterdir())  # checked before any analysis

    @pytest.mark.parametrize("flag, message", [
        ("--verify-factor=-3", "refinement factor must be >= 1"),
        ("--zeta-target=nan", "zeta_target must be finite and > 0, got nan")])
    def test_bad_matrosov_flag_exits_three_whatever_the_verdict(
            self, tmp_path, capsys, flag, message):
        # the chain of example6_broken_y2 is VIOLATED, so the analysis
        # reads neither flag
        code = run("matrosov", "-i", fixture_path("example6_broken_y2"),
                   "-o", str(tmp_path), flag)
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "0", "1", "inf"])
    @pytest.mark.parametrize("name", ["example3", "example4"])
    def test_bad_tail_fraction_exits_three_whatever_the_checks(
            self, tmp_path, capsys, name, value):
        # neither system has a W_semidef bound, so no tail check runs
        code = run("simulate", "-i", fixture_path(name), "-o", str(tmp_path),
                   f"--tail-fraction={value}")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: tail_fraction must lie strictly between 0 and 1\n")

    @pytest.mark.parametrize("radius", ["nan", "inf", "1e-323"])
    def test_radius_must_be_finite_and_positive(self, tmp_path, capsys,
                                                radius):
        # a RuntimeWarning is an error under pytest, so nothing reaches
        # stderr but the one error line; 1e-323 / 100 is a zero step
        code = run("validate-gradient", "-i", fixture_path("example2"),
                   "-o", str(tmp_path), f"--radius={radius}")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: validate_gradient requires a finite radius > 0 with "
            f"radius/100 > 0, got {float(radius)!r}\n")

    @pytest.mark.parametrize("command", ["reduce", "certify"])
    def test_nan_set_endpoint_exits_three(self, tmp_path, capsys, command):
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["F"]["pieces"][0]["value"] = ["{(1e308*10) - (1e308*10)}"]
        doc["certify"]["W"] = "x1*x1"
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run(command, "-i", str(system), "-o", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 3
        assert ("set expression {1e+308*10 - 1e+308*10} has a NaN endpoint "
                "at x=(-2.0,), t=0.0") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, edit, message", [
        ("deriv", lambda d: d["F"]["pieces"][0].update(
            value=["[-1e308*10, 1]"]),
         "quad_half_1d: the generalized derivative is NaN at "
         "x=(0.0,), t=0.0"),
        ("validate-gradient", lambda d: (d["domain"].update(hi=[1e308]),
                                         d["grid"].update(include=[[1e308]])),
         "quad_half_1d: a finite-difference gradient estimate is NaN near "
         "x=(5e+307,), t=0.0"),
        ("validate-gradient", lambda d: (
            d["domain"].update(lo=[1e308], hi=[1.7e308]),
            d["grid"].update(include=[[]])),
         "quad_half_1d: a finite-difference gradient estimate is NaN near "
         "x=(1e+308,), t=0.0"),
        ("certify", lambda d: d["certify"].update(candidates=1.0),
         "certify.candidates: expected a list of points"),
        ("certify", lambda d: d["certify"].update(Wlower="x1*x1"),
         "certify: missing key 'Wupper'"),
        ("certify", lambda d: d["certify"].update(Wupper="x1*x1"),
         "certify: missing key 'Wlower'"),
    ], ids=["deriv-infinite-F", "validate-gradient-huge-probe",
            "validate-gradient-overflowing-center", "candidates-not-a-list",
            "lone-lower-envelope", "lone-upper-envelope"])
    def test_fuzz_found_crash_exits_three(self, tmp_path, capsys, command,
                                          edit, message):
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.setdefault("certify", {"W": "x1*x1"})
        edit(doc)
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run(command, "-i", str(system), "-o", str(tmp_path / "out"),
                   *(["--grid", "3"] if command == "deriv" else []))
        err = capsys.readouterr().err
        assert code == 3
        assert message in err

    @pytest.mark.parametrize("command", ["certify", "deriv"])
    def test_nan_generalized_derivative_exits_three(self, tmp_path, capsys,
                                                    command):
        # no reducer: at x = 0 the gradient {0} meets F's -inf endpoint
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["F"]["pieces"][0]["value"] = ["[-1e308*10, 1]"]
        doc.update(U=[], certify={"W": "x1*x1"})
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run(command, "-i", str(system), "-o", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 3
        assert ("quad_half_1d: the generalized derivative is NaN at "
                "x=(0.0,), t=0.0") in err

    @pytest.mark.parametrize("command, grid, where", [
        ("reduce", None, "include"), ("validate-gradient", None, "include"),
        ("reduce", {"nodes": [[-2, 1e308]], "include": [[]]}, "nodes"),
        ("reduce", {"counts": [5], "include": [[0, 1e308]]}, "include"),
    ], ids=["reduce-include", "validate-gradient-include",
            "grid-file-nodes", "grid-file-include"])
    def test_grid_node_outside_the_domain_exits_three(
            self, tmp_path, capsys, command, grid, where):
        with open(fixture_path("example1"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if grid is None:
            doc["grid"]["include"] = [[1e308]]
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "-i", str(system), "-o", str(tmp_path / "out")]
        if grid is not None:
            gridfile = tmp_path / "grid.json"
            gridfile.write_text(json.dumps({"grid": grid}), encoding="utf-8")
            argv += ["--grid-file", str(gridfile)]
        assert run(*argv) == 3
        assert ("grid: the x1 node 1e+308 lies outside the domain "
                "[-3.0, 3.0]") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "reduce", "matrosov"])
    def test_overflowing_domain_width_exits_three(self, tmp_path, capsys,
                                                  command):
        """On [-1e308, 1e308]^2, hi - lo overflows and uniform nodes would
        be NaN and infinite: the grid is rejected, naming axis and domain."""
        with open(fixture_path("example6"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["domain"] = {"lo": [-1e308, -1e308], "hi": [1e308, 1e308]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        assert run(command, "-i", str(system),
                   "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "error: grid: the x1 axis of the domain [-1e+308, 1e+308] is "
            "too wide for uniform nodes (its width overflows)\n")

    @pytest.mark.parametrize("command",
                             ["certify", "reduce", "deriv", "simulate"])
    def test_failing_reducer_behind_an_emptying_one_exits_three(
            self, tmp_path, capsys, command):
        # U1 empties the reduced set at every node (F = {-x1} excludes 0);
        # U2's gradient divides by zero. Every path evaluates both.
        def function(name, value, gradient):
            return {"name": name, "value": value, "regular": True,
                    "gradient": [{"guard": "otherwise",
                                  "value": [gradient, "{0}"]}]}

        doc = {
            "n": 1,
            "F": {"pieces": [{"guard": "otherwise", "value": ["{-x1}"]}]},
            "V": function("V", "x1*x1", "{2*x1}"),
            "U": [function("U1", "0", "[-1, 1]"),
                  function("U2", "0", "{1/(x1 - x1)}")],
            "domain": {"lo": [0.1], "hi": [1]},
            "grid": {"nodes": [[0.25, 0.5, 0.75]], "include": [[]]},
            "certify": {"W": "x1*x1"},
            "simulate": {"x0": [0.5], "h": 0.1, "T": 0.5,
                         "strategy": "reduced-descent"},
        }
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        code = run(command, "-i", str(system), "-o", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 3
        assert "division by near-zero denominator" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", [
        "-o file", "-o file/sub", "-i dir", "--grid-file dir",
        "-i non-utf-8", "--grid-file non-utf-8", "-i truncated",
        "--grid-file truncated"])
    @pytest.mark.parametrize("command", ["certify", "reduce"])
    def test_unreadable_or_unwritable_path_exits_two(self, tmp_path, capsys,
                                                     command, case):
        (tmp_path / "file").write_bytes(b"an earlier report\n")
        (tmp_path / "dir").mkdir()
        (tmp_path / "non-utf-8").write_bytes(b'{"n": 1, "\xff": 0}')
        (tmp_path / "truncated").write_bytes(b'{\n  "n": 2,\n')
        flag, path = case.split()
        argv = {"-i": fixture_path("example2"), "-o": str(tmp_path / "out")}
        argv[flag] = str(tmp_path / path)
        before = sorted(tmp_path.rglob("*"))
        code = run(command, *(a for kv in argv.items() for a in kv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert str(tmp_path / path) in err  # the file at fault is named
        assert (tmp_path / "file").read_bytes() == b"an earlier report\n"
        assert sorted(tmp_path.rglob("*")) == before  # no directory made

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    @pytest.mark.parametrize("command", [
        "reduce", "deriv", "certify", "invariance", "matrosov", "simulate",
        "validate-gradient"])
    def test_an_out_that_cannot_be_a_directory_exits_before_loading(
            self, tmp_path, capsys, monkeypatch, command, out):
        import incred.cli as cli

        def no_load(path):
            raise AssertionError("the system was loaded")

        monkeypatch.setattr(cli, "load_system", no_load)
        (tmp_path / "file").write_bytes(b"an earlier report\n")
        before = sorted(tmp_path.rglob("*"))
        code = run(command, "-i", fixture_path("example6"),
                   "-o", str(tmp_path / out))
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: -o {tmp_path / out}: {tmp_path / 'file'} "
                       "is not a directory\n")
        assert (tmp_path / "file").read_bytes() == b"an earlier report\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                             ids=[f"{c} {f[0]}" for c, f in _UNREAD_FLAGS])
    def test_unread_flag_is_a_usage_error(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(command, "-i", fixture_path("example6"),
                "-o", str(tmp_path), *flag)
        assert exc.value.code == 2


class TestReduce:
    def test_example1_table_contents(self, tmp_path):
        assert run("reduce", "-i", fixture_path("example1"),
                   "-o", str(tmp_path)) == 0
        with open(tmp_path / "reduction_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_x = {float(r["x1"]): r for r in rows}
        assert by_x[1.0]["Fred_lo1"] == "0.0"
        assert by_x[1.0]["empty_flag"] == "0"
        assert by_x[0.0]["empty_flag"] == "1"
        assert by_x[0.0]["Fred_lo1"] == ""
        assert by_x[-0.5]["Fred_lo1"] == by_x[-0.5]["F_lo1"] == "-2.0"

    def test_smooth_collection_gives_identity_table(self, tmp_path):
        assert run("reduce", "-i", fixture_path("trivial_zero"),
                   "-o", str(tmp_path)) == 0
        with open(tmp_path / "reduction_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert r["empty_flag"] == "0"
            assert r["Fred_lo1"] == r["F_lo1"]
            assert r["Fred_hi2"] == r["F_hi2"]

    def test_example3_table_matches_the_four_cases(self, tmp_path):
        assert run("reduce", "-i", fixture_path("example3"),
                   "-o", str(tmp_path)) == 0
        with open(tmp_path / "reduction_table.csv", newline="") as fh:
            rows = {(float(r["x1"]), float(r["x2"])): r
                    for r in csv.DictReader(fh)}
        edge = rows[(1.0, 0.0)]
        assert (edge["Fred_lo1"], edge["Fred_hi1"]) == ("0.0", "0.0")
        assert (edge["Fred_lo2"], edge["Fred_hi2"]) == ("-1.5", "-0.5")
        assert rows[(1.0, 1.0)]["empty_flag"] == "1"
        interior = next(r for (x1, x2), r in rows.items()
                        if 0.4 < x1 < 0.6 and 0.4 < x2 < 0.6)
        assert interior["Fred_lo1"] == interior["F_lo1"]


class TestDeriv:
    def test_writes_table(self, tmp_path):
        assert run("deriv", "-i", fixture_path("example1"),
                   "-o", str(tmp_path)) == 0
        with open(tmp_path / "derivatives.csv", newline="") as fh:
            rows = {float(r["x1"]): r for r in csv.DictReader(fh)}
        assert rows[0.0]["generalized"] == "-inf"
        assert rows[0.5]["baseline_lo"] == rows[0.5]["baseline_hi"]

    def test_non_regular_candidate_exits_three(self, tmp_path, capsys):
        # the common-value column needs a regular candidate: the first
        # node raises, after its generalized derivative is computed
        with open(fixture_path("example2"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["V"]["regular"] = False
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        assert run("deriv", "-i", str(system), "-o",
                   str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "error: quad_half: the common-value derivative requires a "
            "regular candidate\n")
        assert not (tmp_path / "out").exists()


class TestCertify:
    def test_reports_written(self, tmp_path):
        assert run("certify", "-i", fixture_path("example2"),
                   "-o", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["verdict"] == "CERTIFIED"
        assert "certified on grid" in doc["details"]["note"]
        text = (tmp_path / "certificate.txt").read_text()
        assert "CERTIFIED" in text

    def test_baseline_flag_matches_baseline_fixture(self, tmp_path):
        code = run("certify", "-i", fixture_path("example2"), "--baseline",
                   "-o", str(tmp_path))
        assert code == 1
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["worst_margin"] == 2.0

    def test_grid_override(self, tmp_path):
        assert run("certify", "-i", fixture_path("example2"), "--grid", "11",
                   "-o", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["grid"]["axis_node_counts"] == [13, 13]

    def test_grid_file_override(self, tmp_path):
        gridfile = tmp_path / "grid.json"
        gridfile.write_text(json.dumps(
            {"grid": {"counts": [5, 5], "include": [[-1, 1], [-1, 1]]}}))
        assert run("certify", "-i", fixture_path("example2"),
                   "--grid-file", str(gridfile), "-o", str(tmp_path)) == 0

    def test_semidefinite_block(self, tmp_path):
        assert run("certify", "-i", fixture_path("example5"),
                   "-o", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["condition"] == "semidefinite-decrease"
        assert doc["details"]["sandwich_checked"] is True
        assert doc["details"]["sandwich_violations"] == 0

    def test_semidefinite_block_screens_the_envelopes(self, tmp_path):
        # V = x1^2 + (1 + g) x2^2 exceeds the upper envelope x1^2 + x2^2
        # wherever x2 != 0
        with open(fixture_path("example5"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["certify"]["Wupper"] = "x1*x1 + x2*x2"
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        assert run("certify", "-i", str(system), "-o", str(tmp_path)) == 1
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["verdict"] == "VIOLATED"
        assert cert["details"]["derivative_violations"] == 0
        assert cert["details"]["sandwich_violations"] > 0
        assert any("escapes the envelopes" in f
                   for f in cert["details"]["screen_failures"])


class TestInvariance:
    def test_example3(self, tmp_path):
        assert run("invariance", "-i", fixture_path("example3"),
                   "-o", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "invariance.json").read_text())
        verdicts = {tuple(c["point"]): c["is_equilibrium"]
                    for c in doc["candidates"]}
        assert verdicts[(0.0, 0.0)]
        assert not verdicts[(1.0, 0.0)]
        assert doc["semidefinite"]["verdict"] == "CERTIFIED"
        assert doc["e_node_count"] > 0

    def test_library_and_cli_read_the_system_zero_tol(self, tmp_path):
        from incred import invariance_data, load_system
        with open(fixture_path("example2"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["certify"]["zero_tol"] = 0.5
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        assert run("invariance", "-i", str(system),
                   "-o", str(tmp_path / "out")) == 0
        cli = json.loads((tmp_path / "out" / "invariance.json").read_text())
        lib = invariance_data(load_system(system))
        assert lib.zero_tol == cli["zero_tol"] == 0.5
        assert len(lib.e_nodes) == cli["e_node_count"] == 241
        assert len(invariance_data(load_system(system),
                                   zero_tol=1e-6).e_nodes) == 1


class TestMatrosov:
    def test_example6(self, tmp_path):
        assert run("matrosov", "-i", fixture_path("example6"),
                   "-o", str(tmp_path), "--verify-factor", "2") == 0
        doc = json.loads((tmp_path / "matrosov.json").read_text())
        assert doc["chain"]["verdict"] == "CERTIFIED"
        assert doc["constants"]["constants"] == [2.0]
        assert doc["constants"]["zeta"] >= 0.009
        assert doc["verification"]["verdict"] == "CERTIFIED"
        # informational screen; exit code ignores it
        assert doc["derivative_bounds"]["verdict"] == "VIOLATED"

    def test_runs_the_public_api(self, tmp_path, monkeypatch):
        """``matrosov -i example6.json`` calls each public Matrosov
        function once: a wrapper of the public names sees every step."""
        import incred.certify as cert
        names = ("matrosov_grid", "matrosov_chain", "matrosov_constants",
                 "verify_combined_bound", "matrosov_derivative_bounds")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cert, name, counted(name, getattr(cert, name)))
        assert run("matrosov", "-i", fixture_path("example6"),
                   "-o", str(tmp_path)) == 0
        assert calls == dict.fromkeys(names, 1)

    def test_overflowing_squares_warn_nothing(self, tmp_path, capsys):
        """On [-1e200, 1e200]^2 the far nodes' squared norms overflow to
        inf, which lies outside every annulus and ball: the verdict
        stands, and no numpy warning reaches stderr."""
        with open(fixture_path("example6"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["domain"] = {"lo": [-1e200, -1e200], "hi": [1e200, 1e200]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run("matrosov", "-i", str(system), "-o", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.out == ("matrosov: chain CERTIFIED, constants "
                                f"CERTIFIED ({out / 'matrosov.json'})\n")
        assert captured.err == ""

    def test_broken_bound_exits_one(self, tmp_path):
        assert run("matrosov", "-i", fixture_path("example6_broken_y2"),
                   "-o", str(tmp_path)) == 1
        doc = json.loads((tmp_path / "matrosov.json").read_text())
        assert doc["chain"]["verdict"] == "VIOLATED"
        assert doc["constants"] is None


class TestSimulate:
    def test_example2_defaults(self, tmp_path):
        assert run("simulate", "-i", fixture_path("example2"),
                   "-o", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["checks_passed"]
        assert abs(doc["final_norm"] - 4.765e-3) <= 5e-4
        assert doc["membership"]["fraction"] <= 0.01
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            header = fh.readline().strip()
        assert header == "t,x1,x2,q1,q2,V"

    def test_x0_flag_overrides(self, tmp_path):
        assert run("simulate", "-i", fixture_path("example2"),
                   "--x0", "2,0", "--T", "10", "-o", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["x0"] == [2.0, 0.0]

    def test_missing_x0_exits_three(self, tmp_path):
        assert run("simulate", "-i", fixture_path("example1"),
                   "-o", str(tmp_path)) == 3

    def test_failed_tail_check_exits_one(self, tmp_path):
        # zero field from an offset state never decays
        with open(fixture_path("trivial_zero"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["certify"]["W_semidef"] = "x2*x2"
        fixture = tmp_path / "offset.json"
        fixture.write_text(json.dumps(doc), encoding="utf-8")
        assert run("simulate", "-i", str(fixture), "-o", str(tmp_path)) == 1


class TestValidateGradient:
    def test_trivial_system_passes(self, tmp_path):
        assert run("validate-gradient", "-i", fixture_path("trivial_zero"),
                   "-o", str(tmp_path), "--samples", "50") == 0
        doc = json.loads((tmp_path / "gradient_validation.json").read_text())
        assert doc["passed"] and len(doc["reports"]) > 0

    def test_probes_every_time_node(self, tmp_path, capsys):
        """A time gradient that is right only at t = 0 fails: the probes
        run at each of example4's six time nodes."""
        with open(fixture_path("example4"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        gradient = doc["V"]["gradient"][0]["value"]
        assert gradient[2] == "{gdot*x2*x2}"  # gdot = -0.5*exp(-t)
        gradient[2] = "{-0.5*exp(-2*t)*x2*x2}"
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        assert run("validate-gradient", "-i", str(system), "-o",
                   str(tmp_path / "out"), "--samples", "20") == 1
        assert capsys.readouterr().out.startswith(
            "validate-gradient: FAIL over 300 probes")
        reports = json.loads((tmp_path / "out" / "gradient_validation.json")
                             .read_text())["reports"]
        times = sorted({r["t"] for r in reports})
        assert times == [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
        assert all(r["passed"] for r in reports if r["t"] == 0.0)
        assert not all(r["passed"] for r in reports if r["t"] == 0.5)

    def test_nonregular_matrosov_reducer_exits_three(self, tmp_path, capsys):
        """A W[k].U entry not flagged regular is rejected at load, as a
        top-level U entry is, by every subcommand."""
        with open(fixture_path("example6"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["matrosov"]["W"][1]["U"][0]["regular"] = False
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("matrosov", "certify", "validate-gradient"):
            assert run(command, "-i", str(system), "-o",
                       str(tmp_path / "out")) == 3
            assert capsys.readouterr().err == (
                "error: matrosov.W[1].U: reduction collection entries must "
                "be regular (square_pyramid)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("declared", ["{0}", "{1}"])
    def test_a_step_lost_in_rounding_exits_three(self, declared, tmp_path,
                                                 capsys):
        """Near 1e10 the step radius/100 = 2e-7 is below the float spacing
        (about 1.9e-6), so x +/- step rounds to x and every central
        difference reads 0: the run stops, whether V = x1 declares a
        wrong gradient ({0}) or the right one ({1})."""
        doc = {"n": 1, "domain": {"lo": [1e10], "hi": [2e10]},
               "F": {"pieces": [{"guard": "otherwise", "value": ["{-1}"]}]},
               "V": {"name": "lin", "value": "x1", "regular": True,
                     "gradient": [{"guard": "otherwise",
                                   "value": [declared, "{0}"]}]}}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc), encoding="utf-8")
        assert run("validate-gradient", "-i", str(system), "-o",
                   str(tmp_path / "out"), "--samples", "20") == 3
        assert capsys.readouterr().err == (
            "error: lin: the step 2.0000000000000002e-07 is lost in rounding"
            " near x=(10000000000.0,), t=0.0\n")

    def test_probes_are_the_first_nodes_of_the_probe_grid(self,
                                                          monkeypatch):
        """On every fixture, at any chunk size, the probes are the first 64
        rows of the probe grid's stacked nodes."""
        import incred.cli as cli
        import incred.grids as grids
        from incred.fixtures import available_fixtures, load_fixture
        for name in available_fixtures():
            system = load_fixture(name)
            include = system.grid.include if system.grid else ((),) * system.n
            expected = grid_nodes(grids.GridSpec(tuple(
                (iv.lo, iv.center, iv.hi) for iv in system.domain.axes),
                include), system.domain)[:64].tolist()
            for chunk in (1, 3, 4096):
                monkeypatch.setattr(grids, "_CHUNK", chunk)
                assert cli._default_probes(system) == expected, (name, chunk)

    @pytest.mark.parametrize("include", [[-1, 1], [-1.5, -1, 1, 1.5]])
    def test_probes_of_a_large_probe_grid(self, include, tmp_path):
        """x' = -x in n = 9 with V = |x|^2/2: the probe grid has 5^9 (or
        7^9, over the grid size limit) nodes, and the probes are read off
        its walk, which is never stacked."""
        import tracemalloc

        import incred.cli as cli
        from incred.setmaps import system_from_dict
        x = [f"x{i + 1}" for i in range(9)]
        doc = {"n": 9, "domain": {"lo": [-2] * 9, "hi": [2] * 9},
               "F": {"pieces": [{"guard": "otherwise",
                                 "value": [f"{{-{v}}}" for v in x]}]},
               "V": {"name": "half_norm", "regular": True, "value": "0.5*("
                     + " + ".join(f"{v}*{v}" for v in x) + ")",
                     "gradient": [{"guard": "otherwise", "value": [
                         f"{{{v}}}" for v in x] + ["{0}"]}]},
               "grid": {"counts": [3] * 9, "include": [include] * 9}}
        system = system_from_dict(doc)
        tracemalloc.start()
        try:
            probes = cli._default_probes(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(probes) == 64 and peak < 4 * 2 ** 20
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run("validate-gradient", "-i", str(path), "-o",
                   str(tmp_path / "out"), "--samples", "20") == 0


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("certify", "-i", fixture_path("example2"),
                       "-o", str(out)) == 0
            assert run("simulate", "-i", fixture_path("example2"),
                       "--strategy", "random-extreme", "--seed", "5",
                       "-o", str(out)) == 0
            assert run("reduce", "-i", fixture_path("example3"),
                       "-o", str(out)) == 0
        for name in ("certificate.json", "certificate.txt",
                     "diagnostics.json", "trajectory.csv",
                     "reduction_table.csv", "reduction_table.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "incred.cli", "certify",
         "-i", fixture_path("trivial_zero"), "-o",
         os.path.join(os.environ.get("TMPDIR", "/tmp"), "incred_ep_test")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "CERTIFIED" in proc.stdout
