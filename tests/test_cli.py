"""End-to-end tests of the command-line frontend, driven through main()."""

import json
import math

import numpy as np
import pytest

from rotalign import cli
from rotalign.cli import main
from rotalign.fields import LinearVectorField, PiecewiseConstantField, Box, save_field

import rotalign.correlation


@pytest.fixture
def halves_pair(tmp_path):
    """The split-box field and its quarter-turn copy, saved to disk."""
    original = PiecewiseConstantField((
        (Box((0.0, -1.0, -1.0), (1.0, 1.0, 1.0)), (1.0, 0.0, 0.0)),
        (Box((-1.0, -1.0, -1.0), (0.0, 1.0, 1.0)), (0.0, 1.0, 0.0)),
    ))
    rotated = PiecewiseConstantField((
        (Box((0.0, -1.0, -1.0), (1.0, 1.0, 1.0)), (0.0, 0.0, 1.0)),
        (Box((-1.0, -1.0, -1.0), (0.0, 1.0, 1.0)), (0.0, 1.0, 0.0)),
    ))
    ref, pat = tmp_path / "ref.json", tmp_path / "pat.json"
    save_field(original, ref)
    save_field(rotated, pat)
    return str(ref), str(pat)


def test_detect_quarter_turn_json(halves_pair, capsys):
    ref, pat = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", "1e-6", "--format", "json", "--trace"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert math.isclose(doc["alpha"], math.pi / 2, abs_tol=1e-5)
    assert np.allclose(doc["plane_bivector"], [0.0, 1.0, 0.0], atol=1e-5)
    assert np.allclose(doc["plane_normal"], [0.0, -1.0, 0.0], atol=1e-5)
    assert doc["phi_trace"][0] == pytest.approx(math.pi / 4)


def test_detect_human_output_mentions_plane(halves_pair, capsys):
    ref, pat = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", "1e-3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert "plane bivector" in out and "plane normal" in out


def test_detect_identical_fields(halves_pair, capsys):
    ref, _ = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", ref,
                 "--epsilon", "1e-6", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == pytest.approx(0.0, abs=1e-6)
    assert doc["iterations"] <= 3


def test_detect_writes_output_file(halves_pair, tmp_path, capsys):
    ref, pat = halves_pair
    out_file = tmp_path / "report.json"
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", "1e-6", "--format", "json",
                 "--output", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_file.read_text())
    assert math.isclose(doc["alpha"], math.pi / 2, abs_tol=1e-5)


def test_detect_non_convergence_exit_code(halves_pair, capsys):
    ref, pat = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", "1e-9", "--max-iter", "1",
                 "--format", "json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_detect_missing_file(capsys, halves_pair):
    ref, _ = halves_pair
    code = main(["detect", "--reference", "/no/such/file.json",
                 "--pattern", ref, "--epsilon", "0.1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_detect_malformed_file(tmp_path, halves_pair, capsys):
    ref, _ = halves_pair
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nonsense"}')
    code = main(["detect", "--reference", ref, "--pattern", str(bad),
                 "--epsilon", "0.1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""          # nothing printed before the failure
    assert "error:" in out.err


def test_detect_rejects_non_finite_pattern(tmp_path, halves_pair, capsys):
    ref, _ = halves_pair
    bad = tmp_path / "nan.json"
    save_field(LinearVectorField(np.full((3, 3), np.nan)), bad)
    code = main(["detect", "--reference", ref, "--pattern", str(bad),
                 "--epsilon", "0.1"])
    assert code == 2
    assert "pattern field energy is not finite" in capsys.readouterr().err


def test_bench_csv_deterministic(capsys):
    argv = ["bench", "--epsilons", "0.1,0.01", "--trials", "5", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "epsilon,n,avg_error,max_error,avg_iters,n_nonconverged"
    assert len(lines) == 3
    assert lines[1].startswith("0.1,5,")
    assert lines[2].startswith("0.01,5,")


def test_bench_json(capsys):
    code = main(["bench", "--epsilons", "0.1", "--trials", "3",
                 "--seed", "1", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert row["epsilon"] == 0.1
    assert row["n"] == 3
    assert row["n_nonconverged"] == 0
    assert 0.0 <= row["avg_error"] <= row["max_error"]


def test_bench_rejects_empty_trials(capsys):
    assert main(["bench", "--epsilons", "0.1", "--trials", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "4 - 4 e13" in out
    assert out.count("ok  ") == 4
    assert "FAIL" not in out


def test_verify_catches_a_broken_product(capsys, monkeypatch):
    """Corrupting the correlation integrand must not go unnoticed."""
    true_moment = rotalign.correlation.cross_moment

    def skewed(a, b):
        return 1.001 * true_moment(a, b)

    monkeypatch.setattr(rotalign.correlation, "cross_moment", skewed)
    assert main(["verify"]) != 0
    assert "FAIL" in capsys.readouterr().out
