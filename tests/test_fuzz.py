"""Mutated fixture files through the CLI, in process, on tiny grids.

Whatever a system file holds, a run ends in exit 0, 1, 2 or 3; it never
ends in a Python traceback, whose exit code 1 would read as an analysis
result. Exit 1 comes only with the subcommand's verdict line.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from incred.cli import main
from incred.fixtures import available_fixtures, fixture_path

# small grids and few steps, so that one case takes milliseconds
ARGS = {
    "reduce": ["--grid", "3"],
    "deriv": ["--grid", "3"],
    "certify": ["--grid", "3"],
    "invariance": ["--grid", "3"],
    "matrosov": ["--grid", "3", "--verify-factor", "1"],
    "simulate": ["--h", "0.1", "--T", "0.3"],
    "validate-gradient": ["--samples", "10"],
}

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


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(doc=mutated(), command=st.sampled_from(sorted(ARGS)))
def test_mutated_fixture_exits_cleanly(doc, command, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-i", str(path), "-o", str(tmp_path / "out"),
                     *ARGS[command]])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:
        assert out.getvalue().startswith(f"{command}: ")
    if code in (2, 3):
        assert err.getvalue().startswith("error: ")
