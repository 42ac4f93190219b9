"""The README's config-format figures and library example match the code.

The README states the array lengths a config must give and the size of
the stance stack in prose, and shows an example log header and a
library example, which nothing else checks, so a change to the filter,
the stack, the writer or the API could leave them behind.  Each stated
figure is read from the text (line breaks taken as spaces) and held to
the constant or the output it restates; the example is run.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdrnav import constants, ekf, zupt
from pdrnav.io import write_log
from pdrnav.tracker import ImuLog

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_library_example_runs(tmp_path):
    # The one ``python`` block, run as a script in a fresh interpreter
    # that imports this checkout's package; it prints the walk's ε_TTD.
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    eps = float(done.stdout.split()[-1])
    assert math.isfinite(eps) and 0.0 <= eps <= 0.02
