"""The README's config-format figures match the code.

The README states the array lengths a config must give and the size of
the stance stack in prose, and shows an example log header, which
nothing else checks, so a change to the filter, the stack or the
writer could leave them behind.  Each stated figure is read from the
text (line breaks taken as spaces) and held to the constant or the
output it restates.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from pdrnav import constants, ekf, zupt
from pdrnav.io import write_log
from pdrnav.tracker import ImuLog

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


def test_log_header_is_the_writers(text, tmp_path):
    # The example header is the one `write_log` writes for the default
    # scales at 100 Hz.
    no_counts = np.empty((0, 3), np.int16)
    log = ImuLog(t=np.empty(0), accel=no_counts, gyro=no_counts, fs=100.0,
                 lsb_accel=constants.DEFAULT_LSB_ACCEL,
                 lsb_gyro=constants.DEFAULT_LSB_GYRO)
    write_log(tmp_path / "log.csv", log)
    header = (tmp_path / "log.csv").read_text().splitlines()[0]
    assert re.findall(r"# fs=\S+ lsb_a=\S+ lsb_w=\S+", text) == [header]
