"""Each demo script runs to the end against the current library.

The demos import the public API directly and nothing else runs them, so
a renamed or removed name would otherwise only show when someone runs a
demo by hand.  They run in-process, under the suite's warnings-as-errors
filters, with their printout captured.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    assert out.getvalue()
