"""A scaling scan fails a step whose error stops shrinking with the noise level.

The tangential scan passes on the quad-linear fixture (`tests/test_verify.py`).
Here its noisy gradient is the exact one shifted by eps + floor in every entry,
so the tangential step's error is (eps + floor) times a constant: it stops
shrinking once eps falls below the floor, and its ratio to 2 eps grows from the
anchor 1e-2 to 1e-6 by 10^4 under a floor of 1 (the error does not shrink at
all) and by 10^2 under a floor of 1e-4.  The scans' rule, every ratio within
10x of the anchor's, fails both; a rule 100x looser would pass the second, so
that case also catches a loosened rule.
"""

import numpy as np
import pytest

from noisy_sqp import verify
from noisy_sqp.noise import NoisyEvaluation
from noisy_sqp.problems import evaluate, get_problem


@pytest.mark.parametrize("floor, growth", [(1.0, 1e4), (1e-4, 1e2)], ids=["constant", "1e-4"])
def test_an_error_that_stops_shrinking_fails_the_tangential_scan(monkeypatch, floor, growth):
    def shifted_sample(problem, spec, x, rng, want="both"):
        exact = evaluate(problem, x)
        return NoisyEvaluation(exact.f, exact.g + (spec.eps_g + floor), exact.c, exact.J)

    monkeypatch.setattr(verify, "sample_noisy", shifted_sample)
    p = get_problem("quad-linear")
    report = verify.tangential_gap_scan(p, np.zeros(p.n), n_seeds=2)
    ratios = [o["ratio"] for o in report.observations]
    assert [o["eps"] for o in report.observations] == [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    assert ratios[-1] / ratios[0] == pytest.approx(growth, rel=0.02)
    assert not report.passed
