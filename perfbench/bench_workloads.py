"""The three benchmark workloads and their output checks.

Each workload draws a pool of inputs from the seed during set-up, then runs
one input per operation through a public entry point of the program.  An
operation fails when the call raises, does not converge, the CLI exits
non-zero, the independent check rejects the reported rotation, or a repeat of
the same input reports something else than its first run (detection is
documented as deterministic).
"""

from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_inputs as bi
from rotalign import cli, detector, experiments
from rotalign.fields import Box, PiecewiseConstantField


@dataclass(frozen=True)
class OpResult:
    seconds: float      # wall time of the call into the entry point
    ok: bool
    error: float        # the workload's error measure; nan when failed
    iterations: int     # detector passes; 0 when failed
    answer: tuple = ()  # what a repeat of the input must reproduce
    detail: str = ""    # why the operation failed


def _failed(seconds: float, detail: str) -> OpResult:
    return OpResult(seconds, False, math.nan, 0, (), detail)


def check_repeat(first: OpResult | None, result: OpResult) -> OpResult:
    """A repeated input must give its first answer (detection is
    deterministic); returns the result to keep."""
    if first is None or not (first.ok and result.ok) or result.answer == first.answer:
        return result
    return _failed(result.seconds,
                   f"repeat answered {result.answer}, first {first.answer}")


class Workload:
    """Base: a pool of inputs and one timed call per operation."""

    name = ""
    root = ""          # trace layer of the call into the entry point
    default_pool = 0

    size = 0           # number of inputs in the pool

    def setup(self, seed: int, pool: int, workdir: Path) -> None:
        raise NotImplementedError

    def call(self, index: int, span) -> OpResult:
        """Run input ``index``, timing the entry-point call inside ``span``."""
        raise NotImplementedError

    def run(self, index: int, tracer=None) -> OpResult:
        span = tracer.span(self.root) if tracer is not None else nullcontext()
        try:
            return self.call(index, span)
        except Exception as exc:  # an operation that raises counts as failed
            return _failed(math.nan, f"{type(exc).__name__}: {exc}")

    def pool_problems(self, first_pass: list[OpResult]) -> list[str]:
        """Checks over the whole first pass; none by default."""
        return []


def _timed(span, fn, *args):
    start = time.perf_counter()
    with span:
        out = fn(*args)
    return out, time.perf_counter() - start


class McLinear(Workload):
    """The paper's Monte-Carlo table, one ``run_trials`` call per trial.

    This is what ``rotalign bench`` runs.  The correlation of linear fields
    is a closed-form 3x3 fold, so the time goes to ga3 object churn
    (compose_rotation, rotation_matrix), rotate_outer and per-trial seeding:
    the layers a moment-matrix core or a batched trial engine would replace.
    A trial is one call so that each trial's error is seen.  Its error is
    the paper's Frobenius coefficient error in units of the trial's
    tolerance, so the three tolerances weigh alike and the precision tail of
    the smallest one shows in the percentiles.

    ``run_trials`` reports no rotation to rebuild.  Each trial is checked
    against its field, redrawn with numpy: no rotation moves the coefficient
    matrix A by more than 2 |A|_F, and per tolerance at most MC_TAIL_SHARE
    of the trials may have a residual rotation above MC_TAIL_BOUND * eps.
    """

    name = "mc-linear"
    root = "experiments"
    default_pool = 3000

    # Criterion 6 bounds ensemble averages; with fewer trials per tolerance
    # the averages, and the tail share, are too noisy to hold to a bound.
    WINDOW_MIN_TRIALS = 300

    def setup(self, seed, pool, workdir):
        self.trials = bi.mc_trials(seed, pool)
        self.size = pool

    def call(self, index, span):
        trial = self.trials[index]
        stats, seconds = _timed(span, experiments.run_trials, 1,
                                trial.epsilon, trial.master_seed)
        error = stats.average_error
        iterations = int(round(stats.average_iterations))
        if stats.n_nonconverged or not math.isfinite(error):
            return _failed(seconds, f"trial {index} did not converge")
        if not 0.0 <= error <= 2.0 * trial.field_norm:
            return _failed(seconds, f"trial {index}: coefficient error "
                           f"{error:.3g} beyond 2|A|_F = {2 * trial.field_norm:.3g}")
        return OpResult(seconds, True, error / trial.epsilon, iterations,
                        (error, iterations))

    def pool_problems(self, first_pass):
        problems = []
        for eps in bi.MC_EPSILONS:
            rows = [(t, r) for t, r in zip(self.trials, first_pass)
                    if t.epsilon == eps and r.ok]
            if len(rows) < self.WINDOW_MIN_TRIALS:
                continue
            want_err, want_iters = bi.PAPER_TABLE[eps]
            err = float(np.mean([r.answer[0] for _, r in rows]))
            iters = float(np.mean([r.iterations for _, r in rows]))
            if not (0.5 * want_err <= err <= 5.0 * want_err
                    and 0.5 * want_iters <= iters <= 1.5 * want_iters):
                problems.append(
                    f"eps={eps:g}: avg error {err:.4g} (paper {want_err}), "
                    f"avg iterations {iters:.2f} (paper {want_iters}) outside "
                    f"criterion 6's windows")
            tail = sum(r.error > bi.MC_TAIL_BOUND * t.field_norm for t, r in rows)
            if tail > bi.MC_TAIL_SHARE * len(rows):
                problems.append(
                    f"eps={eps:g}: {tail} of {len(rows)} trials have a residual "
                    f"rotation above {bi.MC_TAIL_BOUND:g} eps")
        return problems


class GridCli(Workload):
    """``rotalign detect`` on pairs of sampled-grid JSON files, in-process.

    The only workload that reads field files and writes a report: JSON
    parsing takes a large share of each operation.  The rest goes to O(N)
    numpy sums in the correlation and N x 3 copies in rotate_outer; ga3 takes
    a few percent, so a ga3-only change should show no gain here.

    Each operation writes its pair's two files just before the timed call.
    Writing the whole pool up front, in each of the repeated set-ups, would
    take longer than the measurement; and the spread of the detector's
    iteration counts needs a pool of a few hundred pairs to average out.
    """

    name = "grid-cli"
    root = "cli"
    default_pool = 200
    resolution = 20

    def setup(self, seed, pool, workdir):
        self.seed = seed
        self.points = bi.cell_centers(self.resolution)
        self.reference = workdir / "reference.json"
        self.pattern = workdir / "pattern.json"
        self.output = workdir / "report.json"
        self.weights = np.ones(len(self.points))
        self.size = pool

    def call(self, index, span):
        reference, pattern = bi.grid_pair(self.seed, index, self.points)
        self.reference.write_text(bi.grid_document(self.resolution, reference))
        self.pattern.write_text(bi.grid_document(self.resolution, pattern))
        self.output.unlink(missing_ok=True)
        argv = ["detect", "--reference", str(self.reference),
                "--pattern", str(self.pattern), "--epsilon", repr(bi.EPSILON),
                "--format", "json", "--trace", "--output", str(self.output)]
        code, seconds = _timed(span, cli.main, argv)
        if code != 0:
            return _failed(seconds, f"pair {index}: rotalign detect exited {code}")
        doc = json.loads(self.output.read_text())
        if not doc["converged"] or len(doc["phi_trace"]) != doc["iterations"]:
            return _failed(seconds, f"pair {index}: inconsistent report")
        rotation = bi.reported_rotation(doc["alpha"], doc["plane_bivector"])
        misfit = bi.relative_misfit(pattern, reference, rotation, self.weights)
        if not misfit <= bi.MISFIT_TOL:
            return _failed(seconds, f"pair {index}: misfit {misfit:.3g}")
        return OpResult(seconds, True, misfit, doc["iterations"],
                        (doc["alpha"], doc["iterations"]))


class Piecewise(Workload):
    """In-memory ``detect`` on piecewise-constant fields.

    Here correlation and fields run as Python loops, not numpy: the
    correlation intersects every pair of cells, and every rotate_outer
    rebuilds the field, whose constructor re-checks all cell overlaps.
    """

    name = "piecewise"
    root = "detector"
    default_pool = 200

    def setup(self, seed, pool, workdir):
        self.pairs = bi.piecewise_pairs(seed, pool)
        self.fields = [(self._field(p, p.reference), self._field(p, p.pattern))
                       for p in self.pairs]
        self.config = detector.DetectionConfig(epsilon=bi.EPSILON)
        self.size = pool

    @staticmethod
    def _field(pair, values):
        return PiecewiseConstantField(tuple(
            (Box(tuple(lo), tuple(hi)), v)
            for lo, hi, v in zip(pair.lows, pair.highs, values)))

    def call(self, index, span):
        reference, pattern = self.fields[index]
        report, seconds = _timed(span, detector.detect, reference, pattern,
                                 self.config)
        if not report.converged:
            return _failed(seconds, f"pair {index} did not converge")
        pair = self.pairs[index]
        rotation = bi.reported_rotation(report.alpha, report.plane.components)
        misfit = bi.relative_misfit(pair.pattern, pair.reference, rotation,
                                    pair.volumes)
        if not misfit <= bi.MISFIT_TOL:
            return _failed(seconds, f"pair {index}: misfit {misfit:.3g}")
        return OpResult(seconds, True, misfit, report.iterations,
                        (report.alpha, report.iterations))


WORKLOADS = {w.name: w for w in (McLinear, GridCli, Piecewise)}
