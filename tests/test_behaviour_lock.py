"""Behaviour lock: seeded Monte-Carlo trials against recorded results.

tests/data/behaviour_lock.json holds (iterations, converged, coefficient
error) of run_trial for seed-0 trials 0-499 at each of four tolerances, and
(iterations, converged, alpha) of detect on 200 seeded shared-cell piecewise
pairs at epsilon 1e-6, as an earlier version of the detector produced them.
A change "keeps behaviour" when every trial takes the same number of passes,
exits the same way, and lands within 1e-12 of the recorded error or angle.  A trial that flips its
exit through rounding is a finding to report, not a tolerance to widen.

To record sets of the lock from the package on the path (for instance from
a checkout of the version to lock against), name them by their keys, 0.1,
0.01, 0.001, 1e-06 and piecewise; the sets not named are copied from the
file unchanged:

    PYTHONPATH=src python tests/test_behaviour_lock.py --write piecewise

A refactor that claims bit-identical behaviour compares the full outputs,
not the lock's tolerance.  --digest prints one SHA-256 over them on the
sets in DIGEST_TRIALS and on the lock's piecewise pairs and the grid pairs
(grid_pairs): run_trial's (error, iterations, converged), and the
(nets, phi_trace, iterations, converged) of the detect_moments call it
makes; detect's (nets, phi_trace, iterations, converged, alpha, plane) on
each pair.  Run it with the package of each checkout on the path and
compare the two lines:

    PYTHONPATH=src python tests/test_behaviour_lock.py --digest

A refactor that claims the lock's rule, same passes and exits with errors
within 1e-12, checks it on the same detections: --dump writes run_trial's
(iterations, converged, error) for each trial and detect's (iterations,
converged, alpha, plane) for each pair as JSON, exact by repr, and
--compare prints the exit or pass-count flips, the largest |difference|
of each float between two dumps and, per set, how many rows are
bit-identical, and exits 1 on any flip or on a difference above ERROR_TOL:

    PYTHONPATH=src python tests/test_behaviour_lock.py --dump new.json
    PYTHONPATH=src python tests/test_behaviour_lock.py --compare old.json new.json
"""

import hashlib
import json
import math
import sys
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import N_PAIRS, piecewise_pairs
from rotalign import experiments
from rotalign.detector import DetectionConfig, detect, detect_moments
from rotalign.experiments import draw_trial, run_trial
from rotalign.fields import UNIT_BOX, SampledField, rotate_outer
from rotalign.ga3 import UnitBivector, rotation_matrix

LOCK = Path(__file__).parent / "data" / "behaviour_lock.json"
MASTER_SEED = 0
N_TRIALS = 500
EPSILONS = (0.1, 0.01, 0.001, 1e-6)
ERROR_TOL = 1e-12
PIECEWISE_EPSILON = 1e-6


def trial_rows(epsilon: float) -> list[tuple[int, bool, float]]:
    rows = []
    for i in range(N_TRIALS):
        err, iterations, converged = run_trial(draw_trial(MASTER_SEED, i, epsilon))
        rows.append((iterations, converged, err))
    return rows


def piecewise_rows() -> list[tuple[int, bool, float]]:
    config = DetectionConfig(epsilon=PIECEWISE_EPSILON)
    rows = []
    for pair in piecewise_pairs():
        report = detect(*pair, config)
        rows.append((report.iterations, report.converged, report.alpha))
    return rows


KEYS = tuple(map(repr, EPSILONS)) + ("piecewise",)

# The digest's seed-0 trial sets, (epsilon, number of trials), and its grid
# pairs: N_PAIRS reference fields sampled on a GRID_RESOLUTION grid.
DIGEST_TRIALS = ((0.1, 10_000), (0.01, 10_000), (0.001, 10_000), (1e-6, 1_000))
GRID_SEED = 26
GRID_RESOLUTION = (6, 5, 4)


def grid_pairs(n=N_PAIRS):
    """(reference, pattern) pairs on a grid over the unit box: pair i
    rotates uniform [-1, 1] samples about a random plane by an angle in
    [0, pi), all from the stream seeded with (GRID_SEED, i)."""
    for i in range(n):
        rng = np.random.default_rng((GRID_SEED, i))
        reference = SampledField(UNIT_BOX, GRID_RESOLUTION, rng.uniform(
            -1.0, 1.0, (math.prod(GRID_RESOLUTION), 3)))
        plane = UnitBivector.from_normal(rng.standard_normal(3))
        yield reference, rotate_outer(reference, plane, rng.uniform(0.0, math.pi))


def loop_outputs(loop) -> tuple:
    return loop.nets, loop.phi_trace, loop.iterations, loop.converged


def detections(trials=DIGEST_TRIALS, n_pairs=N_PAIRS):
    """(set name, output) of the digest's detections in its order:
    run_trial's (error, iterations, converged) for each trial of trials,
    named by repr(epsilon), then detect's report on each of n_pairs
    piecewise pairs and n_pairs grid pairs."""
    for epsilon, n in trials:
        for i in range(n):
            yield repr(epsilon), run_trial(draw_trial(MASTER_SEED, i, epsilon))
    config = DetectionConfig(epsilon=PIECEWISE_EPSILON)
    for name, pairs in (("piecewise", islice(piecewise_pairs(), n_pairs)),
                        ("grid", grid_pairs(n_pairs))):
        for pair in pairs:
            yield name, detect(*pair, config)


def digest(trials=DIGEST_TRIALS, n_pairs=N_PAIRS) -> str:
    """SHA-256 of the reprs, exact for floats, of every output named in the
    module docstring, set by set in a fixed order."""
    h = hashlib.sha256()

    def record(*args):
        loop = detect_moments(*args)
        h.update(repr(loop_outputs(loop)).encode())
        return loop

    with mock.patch.object(experiments, "detect_moments", record):
        for _, out in detections(trials, n_pairs):
            if isinstance(out, tuple):
                h.update(repr(out).encode())
            else:
                h.update(repr((*loop_outputs(out), out.alpha,
                               tuple(out.plane))).encode())
    return h.hexdigest()


def dump(path, trials=DIGEST_TRIALS, n_pairs=N_PAIRS) -> None:
    """Write the digest's detections to path as JSON, one list of rows per
    set: [iterations, converged, error] per trial and [iterations,
    converged, alpha, plane] per pair.  json writes a float by its repr, so
    the file is exact."""
    sets: dict[str, list] = {}
    for name, out in detections(trials, n_pairs):
        if isinstance(out, tuple):
            err, iterations, converged = out
            row = [iterations, converged, err]
        else:
            row = [out.iterations, out.converged, out.alpha, list(out.plane)]
        sets.setdefault(name, []).append(row)
    Path(path).write_text(json.dumps(sets))


def compare(old, new) -> tuple[list[str], dict[str, float]]:
    """The flips between two dumps, one line per row whose iterations or
    exit differ, and the largest |difference| of error, alpha and the plane
    components over the rows that do not flip.  Dumps of different sets or
    lengths raise ValueError."""
    old, new = (json.loads(Path(p).read_text()) for p in (old, new))
    if {k: len(v) for k, v in old.items()} != {k: len(v) for k, v in new.items()}:
        raise ValueError("the dumps hold different sets of detections")
    flips, largest = [], {"error": 0.0, "alpha": 0.0, "plane": 0.0}
    for name, rows in old.items():
        for i, (a, b) in enumerate(zip(rows, new[name])):
            if a[:2] != b[:2]:
                flips.append(f"{name} {i}: {a[0]} passes, converged {a[1]} -> "
                             f"{b[0]} passes, converged {b[1]}")
                continue
            fields = (("error", a[2], b[2]),) if len(a) == 3 else (
                ("alpha", a[2], b[2]), *(("plane", x, y) for x, y in zip(a[3], b[3])))
            for field, x, y in fields:
                largest[field] = max(largest[field], abs(x - y))
    return flips, largest


def identical_rows(old, new) -> dict[str, tuple[int, int]]:
    """Per set of two dumps of the same sets, (rows equal in every entry,
    each float by its repr and so bit for bit, rows in the set)."""
    old, new = (json.loads(Path(p).read_text()) for p in (old, new))
    return {name: (sum(repr(a) == repr(b) for a, b in zip(rows, new[name])),
                   len(rows)) for name, rows in old.items()}


def compare_main(old, new) -> int:
    """Print compare's flips and largest differences, and the bit-identical
    rows of each set; 1 if any flips or any difference is above ERROR_TOL,
    else 0."""
    flips, largest = compare(old, new)
    for flip in flips:
        print(flip)
    print(f"{len(flips)} flips; largest |difference|: " + ", ".join(
        f"{field} {value:.3g}" for field, value in largest.items()))
    for name, (same, total) in identical_rows(old, new).items():
        print(f"{name}: {same} of {total} identical")
    return int(bool(flips) or max(largest.values()) > ERROR_TOL)


def write_lock(keys, path=LOCK) -> None:
    """Record the sets named in keys into the lock at path, and copy the
    others from it as they are."""
    unknown = set(keys) - set(KEYS)
    if unknown:
        raise ValueError(f"unknown lock sets {sorted(unknown)}; keys are {KEYS}")
    old = json.loads(path.read_text()) if path.exists() else {}
    sets = [(key, old[key] if key not in keys else
             piecewise_rows() if key == "piecewise" else trial_rows(float(key)))
            for key in KEYS]
    lines = [f'  "{key}": [\n' + ",\n".join(
        f"    [{it}, {json.dumps(conv)}, {value!r}]" for it, conv, value in rows
    ) + "\n  ]" for key, rows in sets]
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


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


def test_write_records_only_the_named_sets(tmp_path, monkeypatch):
    copy = tmp_path / "lock.json"
    copy.write_text(LOCK.read_text())
    write_lock([], copy)
    assert copy.read_text() == LOCK.read_text()
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "trial_rows", lambda eps: [(7, False, eps / 3)])
    monkeypatch.setattr(module, "piecewise_rows", lambda: [(9, True, 0.5)])
    write_lock(["0.01", "piecewise"], copy)
    got, locked = json.loads(copy.read_text()), json.loads(LOCK.read_text())
    assert list(got) == list(KEYS)
    assert got["0.01"] == [[7, False, 0.01 / 3]]
    assert got["piecewise"] == [[9, True, 0.5]]
    for key in ("0.1", "0.001", "1e-06"):
        assert got[key] == locked[key]
    with pytest.raises(ValueError, match="unknown lock sets"):
        write_lock(["1e-6"], copy)


def test_digest_hashes_each_trial_its_loop_and_each_kind_of_pair():
    # trial 0 at 0.1 and the first pair of each kind, hashed here from the
    # trial's K = R S and S = A X A^T taken through @
    spec = draw_trial(MASTER_SEED, 0, 0.1)
    a = spec.field.matrix
    s = a @ spec.field.box.second_moment_matrix() @ a.T
    k = rotation_matrix(spec.plane, spec.angle) @ s
    want = hashlib.sha256()
    want.update(repr(loop_outputs(detect_moments(
        k.ravel().tolist(), s.ravel().tolist(), DetectionConfig(0.1)))).encode())
    want.update(repr(run_trial(spec)).encode())
    config = DetectionConfig(epsilon=PIECEWISE_EPSILON)
    for pair in (next(piecewise_pairs()), next(grid_pairs())):
        report = detect(*pair, config)
        want.update(repr((*loop_outputs(report), report.alpha,
                          tuple(report.plane))).encode())
    assert digest(((0.1, 1),), 1) == want.hexdigest()


def test_a_dump_compares_clean_with_itself_and_a_doctored_one_fails(tmp_path,
                                                                     capsys):
    # two trials at 0.1 and a pair of each kind
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    dump(old, ((0.1, 2),), 1)
    sets = json.loads(old.read_text())
    assert {name: len(rows) for name, rows in sets.items()} == {
        "0.1": 2, "piecewise": 1, "grid": 1}
    assert compare(old, old) == ([], {"error": 0.0, "alpha": 0.0, "plane": 0.0})
    assert identical_rows(old, old) == {"0.1": (2, 2), "piecewise": (1, 1),
                                        "grid": (1, 1)}
    capsys.readouterr()
    assert compare_main(old, old) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "0.1: 2 of 2 identical", "piecewise: 1 of 1 identical",
        "grid: 1 of 1 identical"]

    def doctored(name, column, change):
        sets = json.loads(old.read_text())
        row = sets[name][0]
        row[column] = change(row[column])
        new.write_text(json.dumps(sets))
        return compare(old, new)

    for name, column, change in (("0.1", 0, lambda it: it + 1),
                                 ("piecewise", 1, lambda conv: not conv)):
        flips, _ = doctored(name, column, change)
        assert len(flips) == 1 and flips[0].startswith(f"{name} 0: ")
        assert compare_main(old, new) == 1
    _, largest = doctored("0.1", 2, lambda err: err + ERROR_TOL / 2)
    assert 0.0 < largest["error"] <= ERROR_TOL and compare_main(old, new) == 0
    # a row within the tolerance is not identical
    assert identical_rows(old, new) == {"0.1": (1, 2), "piecewise": (1, 1),
                                        "grid": (1, 1)}
    assert "0.1: 1 of 2 identical" in capsys.readouterr().out.splitlines()
    for name, column, change, field in (
            ("0.1", 2, lambda err: err + 2 * ERROR_TOL, "error"),
            ("grid", 2, lambda alpha: alpha - 2 * ERROR_TOL, "alpha"),
            ("grid", 3, lambda plane: [plane[0], plane[1] + 2 * ERROR_TOL,
                                       plane[2]], "plane")):
        flips, largest = doctored(name, column, change)
        assert not flips and largest[field] > ERROR_TOL
        assert compare_main(old, new) == 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        print(digest())
    elif sys.argv[1:2] == ["--dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare_main(*sys.argv[2:]))
    elif sys.argv[1:2] == ["--write"] and sys.argv[2:]:
        write_lock(sys.argv[2:])
    else:
        sys.exit(__doc__)
