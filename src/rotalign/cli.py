"""Command-line frontend: detect rotations between field files, run the
benchmark sweep, and verify the built-in golden examples.

Exit codes: 0 success, 1 non-convergence (or a failed verify check),
2 input error (bad flags, missing or malformed files), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from .ga3 import E12, E13, polar_decompose
from .fields import decompose, l2_norm, load_field, from_dict
from .correlation import correlate_at_origin, normalized_correlation
from .detector import DetectionConfig, detect
from .experiments import CSV_HEADER, run_trials, stats_csv_row, stats_to_dict

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotalign",
        description="Recover the outer rotation aligning two 3D vector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="estimate the rotation between two fields")
    p.add_argument("--reference", required=True, help="reference field file")
    p.add_argument("--pattern", required=True, help="rotated pattern field file")
    p.add_argument("--epsilon", type=float, required=True,
                   help="exit tolerance on the correlation argument angle")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--trace", action="store_true",
                   help="include the per-iteration angle trace")
    p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("bench", help="run the seeded benchmark sweep")
    p.add_argument("--epsilons", required=True,
                   help="comma-separated tolerance list, e.g. 0.1,0.01,0.001")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write the table here instead of stdout")

    sub.add_parser("verify", help="run the built-in golden checks")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# detect

def _format_report(report, fmt: str, with_trace: bool) -> str:
    biv = report.plane.components
    normal = report.plane.normal()
    if fmt == "json":
        doc = {
            "alpha": report.alpha,
            "plane_bivector": biv.tolist(),
            "plane_normal": normal.tolist(),
            "iterations": report.iterations,
            "converged": report.converged,
        }
        if with_trace:
            doc["phi_trace"] = list(report.phi_trace)
        return json.dumps(doc)
    lines = [
        f"converged: {'yes' if report.converged else 'no'}",
        f"iterations: {report.iterations}",
        f"alpha (radians): {report.alpha:.9g}",
        f"plane bivector (e12, e13, e23): {biv[0]:.9g} {biv[1]:.9g} {biv[2]:.9g}",
        f"plane normal (x, y, z): {normal[0]:.9g} {normal[1]:.9g} {normal[2]:.9g}",
    ]
    if with_trace:
        lines.append("phi trace: " +
                     " ".join(f"{phi:.9g}" for phi in report.phi_trace))
    return "\n".join(lines)


def cmd_detect(args) -> int:
    reference = load_field(args.reference)
    pattern = load_field(args.pattern)
    config = DetectionConfig(epsilon=args.epsilon, max_iterations=args.max_iter)
    report = detect(reference, pattern, config)
    _emit(_format_report(report, args.format, args.trace), args.output)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    if not epsilons:
        raise ValueError("empty epsilon list")
    results = [(eps, run_trials(args.trials, eps, args.seed, args.max_iter))
               for eps in epsilons]
    if args.format == "json":
        text = json.dumps([stats_to_dict(eps, stats) for eps, stats in results])
    else:
        rows = [CSV_HEADER] + [stats_csv_row(eps, stats)
                               for eps, stats in results]
        text = "\n".join(rows)
    _emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _fixture(name: str):
    doc = resources.files("rotalign").joinpath(f"fixtures/{name}").read_text()
    return from_dict(json.loads(doc))


def _check_halves_correlation():
    rotated = _fixture("two_halves_a_rotated.json")
    original = _fixture("two_halves_a.json")
    cor = correlate_at_origin(rotated, original)
    want = np.zeros(8)
    want[0], want[5] = 4.0, -4.0
    ok = bool(np.allclose(cor.coeffs, want, atol=1e-12))
    return ok, f"correlation = {cor}"


def _check_mixed_halves_correlation():
    rotated = _fixture("two_halves_b_rotated.json")
    original = _fixture("two_halves_b.json")
    cor = correlate_at_origin(rotated, original)
    want = np.zeros(8)
    want[0] = 8.0
    want[4:7] = -4.0
    if not np.allclose(cor.coeffs, want, atol=1e-12):
        return False, f"correlation = {cor}"
    pf = polar_decompose(cor)
    angle_ok = math.isclose(pf.angle, math.atan(math.sqrt(3) / 2),
                            abs_tol=1e-10)
    plane_ok = bool(np.allclose(pf.plane.components,
                                -np.ones(3) / math.sqrt(3), atol=1e-10))
    return angle_ok and plane_ok, \
        f"correlation = {cor}, angle = {pf.angle:.9g}"


def _check_planar_one_shot():
    reference = _fixture("planar_shear.json")
    pattern = _fixture("planar_shear_rotated.json")
    report = detect(reference, pattern, DetectionConfig(epsilon=1e-6))
    ok = (report.converged and report.iterations == 2
          and report.phi_trace[1] <= 1e-10
          and math.isclose(report.alpha, 0.7, abs_tol=1e-8)
          and np.allclose(report.plane.components, E12.components, atol=1e-8))
    return ok, (f"alpha = {report.alpha:.9g}, iterations = {report.iterations}, "
                f"second phi = {report.phi_trace[1]:.3g}")


def _check_scalar_identity():
    original = _fixture("two_halves_a.json")
    rotated = _fixture("two_halves_a_rotated.json")
    parts = decompose(original, E13)
    r = (l2_norm(parts.parallel) / l2_norm(original)) ** 2
    got = normalized_correlation(rotated, original).normalized.scalar
    want = math.cos(math.pi / 2) * r + (1.0 - r)
    ok = math.isclose(got, want, abs_tol=1e-12)
    return ok, f"scalar part = {got:.9g}, predicted = {want:.9g}"


VERIFY_CHECKS = (
    ("rotated halves correlation", _check_halves_correlation),
    ("mixed halves correlation and polar form", _check_mixed_halves_correlation),
    ("planar one-shot recovery", _check_planar_one_shot),
    ("correlation scalar identity", _check_scalar_identity),
)


def cmd_verify(args) -> int:
    all_ok = True
    for name, check in VERIFY_CHECKS:
        ok, detail = check()
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# entry

def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"detect": cmd_detect, "bench": cmd_bench, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
