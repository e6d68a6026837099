"""Byte-identity gate for the demos and the README quickstart.

Each demo script and the ``python`` block under "Library quickstart" in
README.md is run in process and its stdout hashed. The digests were
recorded from the commit before the network builders were folded into
``network_for_setup``, so a migration of the examples that changes a
single printed character fails here.
"""

import contextlib
import hashlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "ancilla_assisted_sorting.py": "3652cd056104b5654ce4f1ff35c072a6019233b087964138945475a86584157e",
    "bell_state_sorting.py": "beaf191a051c684ca03d187c184dc0e62df43c03ebd2db6d3881a33838fa5be0",
    "superdense_coding.py": "e664a5015b37545cf00a66dbc8bec2c92485b07b6827958c1ccbb4eb5bcd7c10",
    "two_photon_interference.py": "059b05e20bceb17747cd9ccd72d61203afbca00ed3c7b435cc9a4f230a08d4ae",
}
README_QUICKSTART = "0fcf8c57908266eba84a7b9586e2360d8b2fd2ac8ca831fd71384c045f4d50bb"


def _digest(run) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run()
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_every_demo_is_gated():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    path = ROOT / "demos" / name
    assert _digest(lambda: runpy.run_path(str(path), run_name="__main__")) == DEMOS[name]


def test_readme_quickstart_output():
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {"__name__": "__readme__"}
    assert _digest(lambda: exec(compile(code, "README.md", "exec"), namespace)) == README_QUICKSTART
