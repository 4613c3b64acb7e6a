"""The determinism contract as a test: the default-suite verify CSV at
--samples 2000 and DEFAULT_SEED against the committed golden file.

The text columns and the verdicts must match exactly.  The numeric columns
may move at rounding only: mean, stderr and closed_form within 1e-12
relative, z within 1e-12 * max(1, |z|).  closed_form is not compared
exactly because a pair row prints its reference estimate there.  Any change
of draws moves the means by about 1e-3 and fails the test; a change that
moves them on purpose regenerates the golden file (README, "Checking a
refactor").
"""

import csv
import io
import math
import pathlib

import pytest

from condmoments import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify-2000.csv"
EXACT = ("experiment_id", "estimator_id", "params", "n_samples", "pass")
RELATIVE = ("mean", "stderr", "closed_form")
TOL = 1e-12


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _close(golden: str, value: str, scale) -> bool:
    """value within TOL * scale(golden) of golden; text that is not a finite
    number (empty, inf, nan) must match exactly."""
    if golden == value:
        return True
    try:
        x, y = float(golden), float(value)
    except ValueError:
        return False
    return math.isfinite(x) and abs(x - y) <= TOL * scale(x)


@pytest.fixture(scope="module")
def rows():
    report = cli.run_verify(cli.default_suite(), samples_override=2000)
    return _rows(cli.report_csv(report)), _rows(GOLDEN.read_text())


def test_same_experiments_in_order(rows):
    new, golden = rows
    assert [r["experiment_id"] for r in new] == [r["experiment_id"] for r in golden]
    assert list(new[0]) == list(golden[0])


@pytest.mark.parametrize("column", EXACT)
def test_text_columns_and_verdicts_match_exactly(rows, column):
    new, golden = rows
    assert [r[column] for r in new] == [r[column] for r in golden]


@pytest.mark.parametrize("column", RELATIVE)
def test_values_match_within_rounding(rows, column):
    new, golden = rows
    moved = [(g["experiment_id"], g[column], r[column]) for g, r in zip(golden, new)
             if not _close(g[column], r[column], abs)]
    assert not moved


def test_z_matches_within_rounding(rows):
    new, golden = rows
    moved = [(g["experiment_id"], g["z"], r["z"]) for g, r in zip(golden, new)
             if not _close(g["z"], r["z"], lambda z: max(1.0, abs(z)))]
    assert not moved
