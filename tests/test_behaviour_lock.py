"""Behaviour lock: seeded Monte-Carlo trials against recorded results.

tests/data/behaviour_lock.json holds (iterations, converged, coefficient
error) of run_trial for seed-0 trials 0-499 at each of four tolerances, and
(iterations, converged, alpha) of detect on 200 seeded shared-cell piecewise
pairs at epsilon 1e-6, as an earlier version of the detector produced them.
A change "keeps behaviour" when every trial takes the same number of passes,
exits the same way, and lands within 1e-12 of the recorded error or angle.  A trial that flips its
exit through rounding is a finding to report, not a tolerance to widen.

To record the lock from the package on the path (for instance from a
checkout of the version to lock against):

    PYTHONPATH=src python tests/test_behaviour_lock.py --write
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import shared_cell_pair
from rotalign.detector import DetectionConfig, detect
from rotalign.experiments import draw_trial, run_trial

LOCK = Path(__file__).parent / "data" / "behaviour_lock.json"
MASTER_SEED = 0
N_TRIALS = 500
EPSILONS = (0.1, 0.01, 0.001, 1e-6)
ERROR_TOL = 1e-12
PIECEWISE_SEED = 12
N_PAIRS = 200
PIECEWISE_EPSILON = 1e-6


def trial_rows(epsilon: float) -> list[tuple[int, bool, float]]:
    rows = []
    for i in range(N_TRIALS):
        err, iterations, converged = run_trial(draw_trial(MASTER_SEED, i, epsilon))
        rows.append((iterations, converged, err))
    return rows


def piecewise_rows() -> list[tuple[int, bool, float]]:
    """Pair i rotates a shared_cell_pair by an angle drawn in [0, pi), all
    from the stream seeded with (PIECEWISE_SEED, i)."""
    config = DetectionConfig(epsilon=PIECEWISE_EPSILON)
    rows = []
    for i in range(N_PAIRS):
        rng = np.random.default_rng((PIECEWISE_SEED, i))
        angle = rng.uniform(0.0, math.pi)
        report = detect(*shared_cell_pair(rng, angle), config)
        rows.append((report.iterations, report.converged, report.alpha))
    return rows


def write_lock() -> None:
    sets = [(repr(eps), trial_rows(eps)) for eps in EPSILONS]
    sets.append(("piecewise", piecewise_rows()))
    lines = [f'  "{key}": [\n' + ",\n".join(
        f"    [{it}, {json.dumps(conv)}, {value!r}]" for it, conv, value in rows
    ) + "\n  ]" for key, rows in sets]
    LOCK.parent.mkdir(exist_ok=True)
    LOCK.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_seeded_trials_match_the_lock(epsilon):
    locked = json.loads(LOCK.read_text())[repr(epsilon)]
    assert len(locked) == N_TRIALS
    for i, ((it, conv, err), (want_it, want_conv, want_err)) in enumerate(
            zip(trial_rows(epsilon), locked)):
        assert (it, conv) == (want_it, want_conv), f"trial {i}"
        assert abs(err - want_err) <= ERROR_TOL, f"trial {i}"


def test_seeded_piecewise_pairs_match_the_lock():
    locked = json.loads(LOCK.read_text())["piecewise"]
    assert len(locked) == N_PAIRS
    for i, ((it, conv, alpha), (want_it, want_conv, want_alpha)) in enumerate(
            zip(piecewise_rows(), locked)):
        assert (it, conv) == (want_it, want_conv), f"pair {i}"
        assert abs(alpha - want_alpha) <= ERROR_TOL, f"pair {i}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_lock()
