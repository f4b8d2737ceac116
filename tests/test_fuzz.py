"""Mutated fixture files through the CLI, in process, on small grids.

Whatever a system file holds, a run ends in exit 0, 1, 2 or 3; it never
ends in a Python traceback, whose exit code 1 would read as an analysis
result. Exit 1 comes only with the subcommand's verdict line.

Each case runs twice, with chunks of 3 rows so that one grid mixes
array-filled chunks and rows refilled pointwise: once as it is, and once
with no array code, every cell from the pointwise reference. The two
runs must agree on the exit code, stdout, stderr and every report byte.
"""

import contextlib
import copy
import io
import json
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incred import grids, reduction
from incred.cli import main
from incred.fixtures import available_fixtures, fixture_path
from incred.reduction import _stream

# small grids and few steps, so that one case takes milliseconds; the
# grid subcommands also get --grid 5 to 9
ARGS = {
    "reduce": [],
    "deriv": [],
    "certify": [],
    "invariance": [],
    "matrosov": ["--verify-factor", "1"],
    "simulate": ["--h", "0.1", "--T", "0.3"],
    "validate-gradient": ["--samples", "10"],
}
GRID_COMMANDS = {"reduce", "deriv", "certify", "invariance", "matrosov"}

HOSTILE = [
    None, True, 0, 1, -1, 2, 7, 0.0, -0.0, 1e-300, 0.5, -2.0, 1e308,
    float("inf"), float("nan"), "", "x1", "x9", "t", "otherwise", "{0}",
    "{x1/0}", "{1/x1}", "[1, 0]", "[-1e308*10, 1]", "{1e308*x1*2}",
    "1/(x1 - x1)", "sgn(x1) + t", "x1 != 0 and 1/x1 > 1", "{-x1}",
    [], {}, [0], ["{0}"], {"guard": "otherwise", "value": []},
]

# rewrites of an expression string
EDITS = [
    lambda s: s + "/x1",
    lambda s: "(" + s + ")*1e308*10",
    lambda s: s.replace("x1", "(x2/x1)"),
    lambda s: s.replace("x2", "x3"),
    lambda s: s + " and 1/x1 > 1",
    lambda s: "{" + s + "}",
    lambda s: s[:len(s) // 2],
    lambda s: s.replace("{", "["),
]

FIXTURES = {name: json.loads(Path(fixture_path(name)).read_text("utf-8"))
            for name in available_fixtures()}


def _paths(doc, prefix=()):
    """Every path into a JSON document below its root."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


NUMBERS = [0, 1, -1, 2, 0.0, -0.0, 1e-300, 0.5, -2.0, 1e308, float("inf"),
           float("nan")]


@st.composite
def mutated(draw):
    """A fixture document with one to three edits: an expression string
    rewritten, a number replaced, any value replaced by a hostile one, or
    a key or element removed."""
    name = draw(st.sampled_from(sorted(FIXTURES)))
    doc = json.loads(json.dumps(FIXTURES[name]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["edit", "edit", "number", "replace",
                                          "delete"]))
        leaf = {"edit": str, "number": (int, float)}.get(kind, object)
        paths = [p for p in _paths(doc) if isinstance(_at(doc, p), leaf)]
        if not paths:
            continue
        *parent, key = draw(st.sampled_from(paths))
        holder = _at(doc, parent)
        if kind == "delete":
            del holder[key]
        elif kind == "edit":
            holder[key] = draw(st.sampled_from(EDITS))(holder[key])
        else:
            holder[key] = copy.deepcopy(draw(st.sampled_from(
                NUMBERS if kind == "number" else HOSTILE)))
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _all_pointwise(jobs, *args):
    """``reduction._stream`` with no array code: every job's cells come
    from its pointwise reference alone (a falsy ``arrays`` flags them all)."""
    return _stream([(zero, None, pointwise) for zero, _, pointwise in jobs],
                   *args)


def _run(argv, out_dir: Path, pointwise: bool):
    """Exit code, stdout, stderr and the report files of one CLI call."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    stream = _all_pointwise if pointwise else _stream
    with mock.patch.object(grids, "_CHUNK", 3), \
            mock.patch.object(reduction, "_stream", stream), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    reports = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))} \
        if out_dir.is_dir() else {}
    return code, out.getvalue(), err.getvalue(), reports


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(doc=mutated(), command=st.sampled_from(sorted(ARGS)),
       grid=st.integers(5, 9))
def test_mutated_fixture_exits_cleanly(doc, command, grid, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "-i", str(path), "-o", str(tmp_path / "out"),
            *ARGS[command]]
    if command in GRID_COMMANDS:
        argv += ["--grid", str(grid)]
    code, out, err, reports = _run(argv, tmp_path / "out", pointwise=False)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 1:
        assert out.startswith(f"{command}: ")
    if code in (2, 3):
        assert err.startswith("error: ")
    if command in GRID_COMMANDS:  # the others fill no rows
        assert _run(argv, tmp_path / "out", pointwise=True) \
            == (code, out, err, reports)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_signed_zero_ties_agree_with_the_pointwise_path(name, tmp_path):
    """F with ``max(-0.0, x1)`` and ``min(-0.0, x2)`` for x1 and x2: at a
    zero node both ties must keep their first argument's sign, as
    Python's ``max`` and ``min`` do, whichever path fills the row."""
    doc = copy.deepcopy(FIXTURES[name])
    doc["F"] = json.loads(json.dumps(doc["F"]).replace(
        "x1", "max(-0.0, x1)").replace("x2", "min(-0.0, x2)"))
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("reduce", "certify"):
        argv = [command, "-i", str(path), "-o", str(tmp_path / "out"),
                "--grid", "5"]
        assert _run(argv, tmp_path / "out", pointwise=False) \
            == _run(argv, tmp_path / "out", pointwise=True)


# example2 with a division or an overflowing exp where the array path could
# lose its NaN: in a max, min, sgn or hull, or in a comparison, which reads
# a NaN as False. The scalar path raises on the x2 == 0 rows (or the
# x2 > 0.5 rows), exit 3, except in the short-circuit form. In the last two
# forms 0*1e999 is NaN on both paths, but the scalar sgn and max drop it
# and take the front piece there, exit 0.
HIDDEN_HAZARDS = [
    ("value", "{max(x1, 1/x2)}", 3),
    ("value", "{-x1 + sgn(1/x2)}", 3),
    ("value", "hull(-x1, 1/x2)", 3),
    ("guard", "min(x1, 1/x2) > 5", 3),
    ("guard", "1/x2 > 100", 3),
    ("guard", "x2 > 0.5 and exp(1000*x2) > 1", 3),
    ("guard", "not (x2 == 0 or 1/x2 < 3)", 0),
    ("guard", "sgn(x2*1e999) < 0", 0),
    ("guard", "max(x1, x2*1e999) > 0", 0),
]


@pytest.mark.parametrize("where, form, code", HIDDEN_HAZARDS)
def test_a_hidden_hazard_agrees_with_the_pointwise_path(where, form, code,
                                                         tmp_path):
    doc = copy.deepcopy(FIXTURES["example2"])
    pieces = doc["F"]["pieces"]
    if where == "value":
        pieces[0]["value"][0] = form
    else:
        pieces.insert(0, {"guard": form,
                          "value": ["{-x1 + x2}", "{-x1 - x2}"]})
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("reduce", "certify", "deriv"):
        argv = [command, "-i", str(path), "-o", str(tmp_path / "out"),
                "--grid", "31"]
        run = _run(argv, tmp_path / "out", pointwise=False)
        assert run[0] == code
        assert run == _run(argv, tmp_path / "out", pointwise=True)


def test_a_guard_of_three_hundred_terms_compiles_on_the_array_path(tmp_path):
    """example1 with a first F piece behind 300 ``x1 != k`` terms joined by
    ``and``: the mask code is one n-ary ``_and`` call, not 299 nested ones
    (which Python's parser rejects), and the x1 == 0 row still falls
    through to the fixture's own pieces."""
    doc = copy.deepcopy(FIXTURES["example1"])
    guard = " and ".join(f"x1 != {k}" for k in [0, *range(10, 309)])
    doc["F"]["pieces"].insert(0, {"guard": guard, "value": ["{-x1}"]})
    doc["certify"]["W"] = "0.5*x1*x1"
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = {}
    for command in ("reduce", "certify"):
        argv = [command, "-i", str(path), "-o", str(tmp_path / "out"),
                "--grid", "5"]
        runs[command] = _run(argv, tmp_path / "out", pointwise=False)
        assert runs[command][0] == 0, runs[command][2]
        assert runs[command] == _run(argv, tmp_path / "out", pointwise=True)
    text = runs["reduce"][3]["reduction_table.txt"].decode()
    assert "x=(0.0) t=0.0  F=[-2.0, -2.0]" in text  # the fixture's piece
    assert "x=(1.5) t=0.0  F=[-1.5, -1.5]" in text  # the new first piece


# example1 with one long or deeply nested expression: a scalar sum of 250
# terms compiles to one flat chain and a set sum of 300 or 2,000 terms to
# one n-ary call; the rest exceed the documented limits
LONG_AND_DEEP = [
    ("value", "{" + " + ".join(["x1"] * 250) + "}", 0, None),
    ("value", " + ".join(["{x1}"] * 300), 0, None),
    ("value", " + ".join(["{x1}"] * 2000), 0, None),
    ("value", "{" + " + ".join(["x1"] * 1200) + "}", 2,
     "F.pieces[0].value[0]: syntax tree deeper than 256 levels"),
    ("value", "{" + "(" * 250 + "x1" + ")" * 250 + "}", 2,
     "F.pieces[0].value[0]: more than 32 nested brackets"),
    ("guard", "not " * 250 + "abs(x1) != 1", 2,
     "F.pieces[0].guard: more than 32 nested brackets"),
]


@pytest.mark.parametrize("where, form, code, message", LONG_AND_DEEP,
                         ids=["sum250", "setsum300", "setsum2000", "sum1200",
                              "paren250", "not250"])
def test_a_long_or_deep_expression_never_ends_in_a_traceback(
        where, form, code, message, tmp_path):
    doc = copy.deepcopy(FIXTURES["example1"])
    piece = doc["F"]["pieces"][0]
    piece[where] = [form] if where == "value" else form
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["reduce", "-i", str(path), "-o", str(tmp_path / "out"),
            "--grid", "5"]
    run = _run(argv, tmp_path / "out", pointwise=False)
    assert run[0] == code and "Traceback" not in run[1] + run[2]
    if message is None:
        assert run == _run(argv, tmp_path / "out", pointwise=True)
    else:
        assert run[2].startswith(f"error: {message}")
