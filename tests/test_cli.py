"""End-to-end tests of the command-line frontend, driven through main()."""

import json
import math

import numpy as np
import pytest

from rotalign import cli
from rotalign.cli import main
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, rotate_outer,
)
from rotalign.ga3 import UnitBivector

import rotalign.correlation

from conftest import save_field


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


def test_detect_human_output_prints_the_trace(halves_pair, capsys):
    ref, pat = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", "1e-6", "--trace"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    traces = [line for line in lines if line.startswith("phi trace: ")]
    assert len(traces) == 1
    main(["detect", "--reference", ref, "--pattern", pat, "--epsilon", "1e-6",
          "--format", "json", "--trace"])
    phis = json.loads(capsys.readouterr().out)["phi_trace"]
    assert len(phis) >= 2 and phis[0] == pytest.approx(math.pi / 4)
    assert traces[0] == "phi trace: " + " ".join(f"{phi:.9g}" for phi in phis)


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


def test_detect_on_a_huge_linear_pair(tmp_path, capsys):
    # values near 2^260 square to about 1e156, so the energies stay finite;
    # the polar read and the certificate must not overflow on the way
    matrix = 2.0 ** 260 * np.array([[0.3, -0.8, 0.5],
                                    [0.9, 0.1, -0.4],
                                    [-0.2, 0.6, 0.7]])
    reference = LinearVectorField(matrix)
    plane = UnitBivector.from_components(1.0, 2.0, -2.0)
    ref, pat = tmp_path / "ref.json", tmp_path / "pat.json"
    save_field(reference, ref)
    save_field(rotate_outer(reference, plane, 1.2), pat)
    code = main(["detect", "--reference", str(ref), "--pattern", str(pat),
                 "--epsilon", "1e-6", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert math.isclose(doc["alpha"], 1.2, abs_tol=1e-5)
    assert np.allclose(doc["plane_bivector"], plane.components, atol=1e-5)


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


def test_detect_rejects_a_file_nested_too_deeply_for_json(tmp_path, halves_pair,
                                                         capsys):
    # json.load raises RecursionError here; that is a malformed file, not an
    # internal error
    ref, _ = halves_pair
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code = main(["detect", "--reference", ref, "--pattern", str(deep),
                 "--epsilon", "0.1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "nested too deeply" in out.err


@pytest.mark.parametrize("huge", ["pattern", "reference"])
def test_detect_on_an_overflowing_field_prints_one_line(tmp_path, halves_pair,
                                                        capsys, huge):
    # no errstate here: numpy's overflow warnings, errors under tier-1's
    # filter, must neither print nor turn exit 2 into exit 3
    paths = {"reference": halves_pair[0], "pattern": halves_pair[1]}
    paths[huge] = str(tmp_path / "huge.json")
    save_field(LinearVectorField(1e308 * np.eye(3)), paths[huge])
    code = main(["detect", "--reference", paths["reference"],
                 "--pattern", paths["pattern"], "--epsilon", "0.1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {huge} field energy is not finite\n"


BOX = {"low": [-1, -1, -1], "high": [1, 1, 1]}
HUGE = 10 ** 400  # a 401-digit JSON integer: too large for a float


def test_json_writes_nan_and_a_huge_int_as_literals():
    # so the documents below reach the loader as NaN and as 401 digits
    assert json.dumps([math.nan, HUGE]) == f"[NaN, {HUGE}]"


@pytest.mark.parametrize("doc, message", [
    ({"kind": "nonsense"}, "unknown field kind 'kind'"),
    ({"linear": {"box": BOX}}, "linear field has no 'matrix' entry"),
    ({"linear": [1, 2, 3]}, "linear field has a JSON value of the wrong type"),
    ({"piecewise": [{"box": BOX, "vector": [1, 0, 0]}, {"box": BOX}]},
     "piecewise field has no 'vector' entry"),
    ({"piecewise": {"a": 1}}, "piecewise field has a JSON value of the wrong type"),
    ({"piecewise": 7}, "piecewise field has a JSON value of the wrong type"),
    ({"grid": {"box": BOX, "data": [[1, 0, 0]]}},
     "grid field has no 'resolution' entry"),
    ({"grid": {"box": {"low": [0, 0, 0]}, "resolution": [1, 1, 1],
               "data": [[1, 0, 0]]}}, "grid field has no 'high' entry"),
    ({"linear": {"matrix": [[1, 0, 0], [0, 1, 0]], "box": BOX}},
     "matrix must be 3x3, got (2, 3)"),
    ({"grid": {"box": BOX, "resolution": [1.5, 1, 2],
               "data": [[1, 0, 0], [0, 1, 0]]}}, "bad resolution (1.5, 1, 2)"),
    ({"grid": {"box": BOX, "resolution": [1, 1, 2],
               "data": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
     "data shape (3, 3) does not match resolution (1, 1, 2)"),
    ({"linear": {"matrix": [["1", 0, 0], [0, True, 0], [0, 0, "2.5"]],
                 "box": {"low": ["-1", -1, False], "high": [1, 1, "1e0"]}}},
     "matrix must be lists of three JSON numbers"),
    # the loader accepts the NaN literal; the field constructor rejects it
    ({"linear": {"matrix": [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0],
                            [0.0, 0.0, 1.0]], "box": BOX}},
     "matrix values must be finite"),
    ({"piecewise": [
        {"box": {"low": [0, 0, 0], "high": [1, 1, 1]}, "vector": [1, 0, 0]},
        {"box": {"low": [0.5, 0.5, math.nan], "high": [2, 2, 2]},
         "vector": [0, 1, 0]}]}, "box corners must be finite"),
    ({"linear": {"matrix": [[1, 0, 0], [0, HUGE, 0], [0, 0, 1]], "box": BOX}},
     "matrix must be finite"),
    ({"piecewise": [{"box": BOX, "vector": [1, 0, -HUGE]}]},
     "cell vectors must be finite"),
    ({"grid": {"box": BOX, "resolution": [1, 1, 1], "data": [[HUGE, 0, 0]]}},
     "grid data must be finite"),
    ({"linear": {"matrix": np.eye(3).tolist(),
                 "box": {"low": [-1, -1, -1], "high": [1, HUGE, 1]}}},
     "box corners must be finite"),
])
def test_detect_rejects_a_bad_field_document(tmp_path, halves_pair, capsys,
                                             doc, message):
    ref, _ = halves_pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["detect", "--reference", ref, "--pattern", str(bad),
                 "--epsilon", "0.1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""  # nothing printed before the failure
    assert out.err == f"error: {message}\n"


def test_a_type_error_inside_a_command_exits_3(halves_pair, capsys, monkeypatch):
    # a TypeError is a programming error, not bad input: exit 3, not 2
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "detect", broken)
    ref, pat = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", "0.1"])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: unsupported operand\n"


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
    assert "error: need at least one trial" in capsys.readouterr().err


def test_bench_rejects_an_empty_epsilon_list(capsys):
    assert main(["bench", "--epsilons", ",", "--trials", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: empty epsilon list" in out.err


@pytest.mark.parametrize("epsilon", ["inf", "1e400", "nan"])
def test_detect_rejects_a_non_finite_epsilon(halves_pair, capsys, epsilon):
    ref, pat = halves_pair
    code = main(["detect", "--reference", ref, "--pattern", pat,
                 "--epsilon", epsilon])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "epsilon must be positive and finite" in out.err


@pytest.mark.parametrize("epsilons", ["inf", "1e400", "0.1,1e400"])
def test_bench_rejects_a_non_finite_epsilon(capsys, monkeypatch, epsilons):
    trials = []
    monkeypatch.setattr(cli, "run_trials", lambda *args: trials.append(args))
    assert main(["bench", "--epsilons", epsilons, "--trials", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and trials == []  # no tolerance runs before the check
    assert "epsilon must be positive and finite" in out.err


def test_parser_is_built_once_and_still_rejects_bad_flags(capsys):
    assert cli._build_parser() is cli._build_parser()
    for argv in (["detect", "--epsilon", "0.1"], ["bench", "--trials", "x"],
                 ["nonsense"], ["detect", "--reference", "a", "--pattern", "b",
                                "--epsilon", "0.1", "--format", "xml"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: rotalign" in capsys.readouterr().err


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
