"""Every CSV and ``--summary`` output, and the exit code and stderr of each
bad config, matches its recorded golden file.

The files are written by ``record_golden.py``. Each output is compared three
ways: with its numbers masked the text is identical, every number agrees
within ``TOLERANCE``, and under the numpy version the files were recorded
with the bytes are identical (another numpy may round a last bit apart).
"""

import math
import re

import numpy as np
import pytest

from record_golden import CASES, GOLDEN, TOLERANCE, render, render_bad

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
RECORDED_NUMPY = (GOLDEN / "numpy_version").read_text(encoding="utf-8").strip()


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return a == b or (math.isfinite(x) and math.isfinite(y) and abs(x - y) <= TOLERANCE)


def _matches_golden(output: str, path) -> None:
    golden = path.read_text(encoding="utf-8")
    name = path.relative_to(GOLDEN)
    assert NUMBER.sub("#", output) == NUMBER.sub("#", golden), f"{name}: text differs"
    pairs = list(zip(NUMBER.findall(output), NUMBER.findall(golden)))
    far = [(a, b) for a, b in pairs if not _close(a, b)]
    assert not far, f"{name}: {len(far)} numbers off by > {TOLERANCE}, first {far[0]}"
    if np.__version__ == RECORDED_NUMPY:
        assert output == golden, f"{name}: bytes differ under numpy {RECORDED_NUMPY}"


@pytest.mark.parametrize("label, experiment", CASES, ids=[f"{c}-{e}" for c, e in CASES])
def test_outputs_match_the_golden_files(label, experiment, tmp_path):
    for name, output in render(label, experiment, tmp_path).items():
        _matches_golden(output, GOLDEN / label / name)


def test_bad_configs_match_the_golden_file(tmp_path):
    for name, output in render_bad(tmp_path).items():
        _matches_golden(output, GOLDEN / name)
