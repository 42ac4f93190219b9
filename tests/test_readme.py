"""The README's config-format figures match the code.

The README states the array lengths a config must give and the size of
the stance stack in prose, which nothing else checks, so a change to
the filter or the stack could leave them behind.  Each stated figure is
read from the text (line breaks taken as spaces) and held to the
constant it restates.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from pdrnav import ekf, zupt

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def text():
    return " ".join(README.read_text(encoding="utf-8").split())


def test_array_lengths(text):
    stated = re.findall(r"(\d+) numbers for `q_diag`, (\d+) for `r_diag`, "
                        r"(\d+) for `pseudo_variances`", text)
    assert stated == [(str(ekf.DIM), str(ekf.MEAS_DIM), str(zupt.N_PSEUDO))]


def test_stance_stack_size(text):
    stated = re.findall(r"The stance stack is (\d+) rows", text)
    assert stated == [str(zupt.N_PSEUDO)]


def test_pseudo_measurement_row_count(text):
    stated = re.findall(r"all (\d+) pseudo-measurement rows", text)
    assert stated == [str(zupt.N_PSEUDO)]
