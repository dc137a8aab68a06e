"""The DES reproduces the closed forms (``sim-vs-analytic``).

Two tables carry a bound: the analytic mirror against eqs. (4)–(5),
(8)–(10) and (25)–(27), and the Che + M/G/1-PS predictor against
full-system runs at prefetch-free cache points.
"""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="module")
def result():
    return get_experiment("sim-vs-analytic").run(fast=True)


def test_mirror_worst_relative_error_below_0_15(result):
    _, _, rows = result.tables[0]
    # worst relative error across all operating points and quantities
    assert max(row[-1] for row in rows) < 0.15


def test_che_worst_relative_error_below_0_15(result):
    name, headers, rows = result.tables[2]
    assert name.startswith("Che predictor")
    h_err, t_err = headers.index("h rel err"), headers.index("t rel err")
    assert max(max(row[h_err], row[t_err]) for row in rows) < 0.15
