"""README's python blocks run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["d"] == -0.5
    assert namespace["cert"].verdict == "CERTIFIED"
    assert capsys.readouterr().out == (
        "CERTIFIED\nVIOLATED\n"
        "CERTIFIED CERTIFIED CERTIFIED VIOLATED\n")
