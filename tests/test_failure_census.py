"""Failure census: the seed-0 Monte-Carlo trials that fail, counted by id.

tests/data/failure_census.json lists, per tolerance, the seed-0 run_trial
ids that exit "converged" with a coefficient error above 10 epsilon (false
exits, the half-turn mode of ROADMAP item 2) and the ids that do not
converge (the slow mode of item 3): trials 0-9999 at epsilon 0.1, 0.01 and
0.001, as criterion 6 runs them, and 0-999 at 1e-6, as criterion 5 runs
them.  Both lists are held exactly, so a fix that removes a failure, or a
change that adds one, shows as a counted move and needs a re-record with
its reason.

To record the census from the package on the path (for instance from a
checkout of the version to count against):

    PYTHONPATH=src python tests/test_failure_census.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from rotalign.experiments import draw_trial, run_trial

CENSUS = Path(__file__).parent / "data" / "failure_census.json"
MASTER_SEED = 0
TRIALS = {0.1: 10_000, 0.01: 10_000, 0.001: 10_000, 1e-6: 1000}
ERROR_FACTOR = 10.0


def census(epsilon: float) -> dict[str, list[int]]:
    """The false-exit and unconverged trial ids at one tolerance."""
    false_exits, unconverged = [], []
    for i in range(TRIALS[epsilon]):
        err, _, converged = run_trial(draw_trial(MASTER_SEED, i, epsilon))
        if not converged:
            unconverged.append(i)
        elif err > ERROR_FACTOR * epsilon:
            false_exits.append(i)
    return {"false_exits": false_exits, "unconverged": unconverged}


def write_census(path=CENSUS) -> None:
    sets = {repr(eps): census(eps) for eps in TRIALS}
    lines = [f'  "{key}": {json.dumps(rows)}' for key, rows in sets.items()]
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize("epsilon", TRIALS)
def test_failure_census_matches_the_record(epsilon):
    assert census(epsilon) == json.loads(CENSUS.read_text())[repr(epsilon)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_census()
