"""Failure census: the seed-0 Monte-Carlo trials that fail, counted by id.

tests/data/failure_census.json lists, per tolerance, the seed-0 run_trial
ids that exit "converged" with a coefficient error above 10 epsilon (false
exits, the half-turn mode of ROADMAP item 2) and the ids that do not
converge (the slow mode of item 3): trials 0-9999 at epsilon 0.1, 0.01 and
0.001, as criterion 6 runs them, and 0-999 at 1e-6, as criterion 5 runs
them.  Both lists are held exactly, so a fix that removes a failure, or a
change that adds one, shows as a counted move and needs a re-record with
its reason.

Two spectral checks state why the half-turn mode happens.  A pass is the
shifted power step r <- (N + |N r| I) r over its length, on the net rotor r
and Horn's 4x4 N of the trial's first cross moment K0 (conftest
horn_matrix), so the loop's fixed points are N's eigenvectors: every listed
false exit ends on N's second eigenvector v2, a saddle of tr(R K) where the
correlation's bivector vanishes and the first-order certificate sees no
misfit.  For an exact copy, K0 = R S, N's eigenvalues are tr S and
2 s_i - tr S for S's eigenvalues s_i.  tr(R K0) = r^T N r is not the
loop's monotone quantity: it falls on a few early passes of large phi, but
on no pass with phi below 0.6 rad.  The slow mode reads the same spectrum:
the two slow trials run in the plane of N's top two eigenvectors, where
tan phi = (lambda_1 - lambda_2) |sin 2 beta| / (2 tr K) for the net
q = cos beta v1 + sin beta v2, so phi is small when q nears v2 or the two
eigenvalues near each other.

To record the census from the package on the path (for instance from a
checkout of the version to count against):

    PYTHONPATH=src python tests/test_failure_census.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import horn_matrix, trial_loop, trial_loops

CENSUS = Path(__file__).parent / "data" / "failure_census.json"
TRIALS = {0.1: 10_000, 0.01: 10_000, 0.001: 10_000, 1e-6: 1000}
ERROR_FACTOR = 10.0


def census(epsilon: float, sweep) -> dict[str, list[int]]:
    """The false-exit and unconverged trial ids of a sweep, trial_loops of
    trials 0, 1, 2, ... at epsilon."""
    false_exits, unconverged = [], []
    for i, (_, _, loop, error) in enumerate(sweep):
        if not loop.converged:
            unconverged.append(i)
        elif error > ERROR_FACTOR * epsilon:
            false_exits.append(i)
    return {"false_exits": false_exits, "unconverged": unconverged}


def write_census(path=CENSUS) -> None:
    sets = {repr(eps): census(eps, trial_loops(range(n), eps))
            for eps, n in TRIALS.items()}
    lines = [f'  "{key}": {json.dumps(rows)}' for key, rows in sets.items()]
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def sweep(epsilon):
    """trial_loops of the census's seed-0 trials at epsilon, which the tests
    parametrize with module scope: one sweep per tolerance, held in turn."""
    return trial_loops(range(TRIALS[epsilon]), epsilon)


@pytest.mark.parametrize("epsilon", TRIALS, scope="module")
def test_failure_census_matches_the_record(epsilon, sweep):
    assert census(epsilon, sweep) == json.loads(CENSUS.read_text())[repr(epsilon)]


# Least |<net, v2>| over each tolerance's listed false exits; measured
# 0.98006 / 0.99992 / 0.99999997 at epsilon 0.1 / 0.01 / 0.001.
V2_OVERLAP = {0.1: 0.97, 0.01: 0.999, 0.001: 0.999}


@pytest.mark.parametrize("epsilon", V2_OVERLAP, scope="module")
def test_each_false_exit_ends_on_ns_second_eigenvector(epsilon, sweep):
    for index in json.loads(CENSUS.read_text())[repr(epsilon)]["false_exits"]:
        k, _, loop, _ = sweep[index]
        v2 = np.linalg.eigh(np.array(horn_matrix(k)))[1][:, -2]
        assert abs(np.dot(loop.net, v2)) >= V2_OVERLAP[epsilon], f"trial {index}"


@pytest.mark.parametrize("epsilon", [0.1], scope="module")
def test_n_of_an_exact_copy_has_the_spectrum_of_s(sweep):
    # N of K0 = R S has the eigenvalues tr S and 2 s_i - tr S, whatever R;
    # the largest gap measured over these 200 trials is 1.5e-15 tr S
    for index, (k, s, _, _) in enumerate(sweep[:200]):
        s = np.reshape(s, (3, 3))
        tr = np.trace(s)
        want = np.sort(np.append(2.0 * np.linalg.eigvalsh(s) - tr, tr))
        got = np.linalg.eigvalsh(np.array(horn_matrix(k)))
        assert np.max(np.abs(got - want)) <= 1e-14 * tr, f"trial {index}"


@pytest.mark.parametrize("epsilon", [0.1, 0.01, 0.001], scope="module")
def test_tr_rk_does_not_fall_on_a_pass_below_0_6_rad(sweep):
    # tr(R K0) = r^T N r, before and after each pass of seed-0 trials
    # 0-9999, read off the replayed nets.  It falls on some pass of 46
    # trials at each tolerance (197, 231, 313, 703, ...), by up to 0.46
    # tr S, always on passes 1-4 and with phi >= 0.648 rad; on every pass
    # with phi < 0.6 rad it rises, by at least 3.6e-9 tr S (measured).  The
    # bound below zero only allows for the rounding of the numpy sums
    falls = set()
    for index, (k, s, loop, _) in enumerate(sweep):
        r = np.array(((1.0, 0.0, 0.0, 0.0), *loop.nets))
        rise = np.diff(np.einsum("ij,jk,ik->i", r, np.array(horn_matrix(k)), r))
        rise /= s[0] + s[4] + s[8]
        small = np.array(loop.phi_trace) < 0.6
        assert np.all(rise[small] >= -1e-15), f"trial {index}"
        if np.any(rise < 0.0):
            falls.add(index)
    assert {197, 231, 313, 703} <= falls  # the check sees the falls


def test_the_slow_trial_falls_at_the_rate_of_s():
    # seed-0 trial 1627 at 1e-6 (rho = 0.99381) does not converge in 1000
    # passes, each of which, near the answer, shrinks phi by
    # rho = lambda_max(S) / tr S = (lambda_1 + lambda_2) / (2 lambda_1), for
    # N's two top eigenvalues.  Its 100-pass ratio at pass 1000, read off
    # the replayed trace, is within 1.5e-7 of rho (measured)
    _, s, loop, _ = trial_loop(1627, 1e-6)
    assert not loop.converged and loop.iterations == 1000
    phi = loop.phi_trace
    s = np.reshape(s, (3, 3))
    rho = np.linalg.eigvalsh(s)[-1] / np.trace(s)
    assert abs((phi[999] / phi[899]) ** (1 / 100) - rho) <= 1e-6


@pytest.mark.parametrize("index, epsilon, master_seed",
                         [(1627, 1e-6, 0), (0, 1e-3, 6914897348323)])
def test_a_slow_trial_reads_the_two_mode_formula(index, epsilon, master_seed):
    # both slow trials run their 1000 passes in the plane of N's top two
    # eigenvectors v1, v2: with q = cos(beta) v1 + sin(beta) v2 the net
    # before a pass, tan(phi) = (lambda_1 - lambda_2) |sin 2 beta| / (2 tr K),
    # tr K = q^T N q (|sin 2 beta|: an eigenvector's sign is arbitrary).
    # From pass 11 on, the relative gap is at most 1.0e-11 and 2.3e-13, and
    # q's component off the plane at most 2.4e-16 (measured)
    _, _, loop, _ = trial_loop(index, epsilon, master_seed)
    assert not loop.converged and loop.iterations == 1000
    n = np.zeros((4, 4))
    n[np.triu_indices(4)] = loop.horn
    n += np.triu(n, 1).T
    lam, v = np.linalg.eigh(n)
    q = np.array(((1.0, 0.0, 0.0, 0.0), *loop.nets[:-1]))[10:]
    c1, c2 = q @ v[:, 3], q @ v[:, 2]
    assert np.max(np.abs(q @ v[:, :2])) <= 1e-14
    tr_k = np.einsum("ij,jk,ik->i", q, n, q)
    want = np.arctan2((lam[3] - lam[2]) * np.abs(np.sin(2.0 * np.arctan2(c2, c1))),
                      2.0 * tr_k)
    assert np.max(np.abs(np.array(loop.phi_trace[10:]) - want) / want) <= 1e-10


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_census()
