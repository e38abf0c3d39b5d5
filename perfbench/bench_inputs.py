"""Seeded inputs for the benchmark workloads, and the independent output check.

Every input is drawn from its own generator, seeded by (workload seed,
workload tag, input index), so a pool of any size is a prefix of the same
sequence and the same seed always gives the same inputs.  Nothing here imports
``rotalign``: the rotations the inputs carry and the check of the reported
rotation both use numpy's Rodrigues formula, and the Monte-Carlo fields are
redrawn with numpy alone, so a defect in ``rotalign`` cannot hide itself.

Rotation angles are uniform below ``ANGLE_CAP``, the cap that
``rotalign.experiments`` uses (the convergence guarantee is open at pi), and
rotation planes are uniform (uniform unit normal).  No input is filtered or
re-drawn after the fact, so the detector's slow and imprecise cases stay in
the pool in their natural proportion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ANGLE_CAP = math.pi * (1.0 - 1e-9)

# Tolerances of the paper's Monte-Carlo table, cycled by mc-linear, with the
# paper's average error and iterations per tolerance (acceptance criterion 6).
MC_EPSILONS = (0.1, 0.01, 0.001)
PAPER_TABLE = {0.1: (0.17, 4.23), 0.01: (0.02, 11.76), 0.001: (0.002, 21.44)}

# A Monte-Carlo trial whose coefficient error exceeds MC_TAIL_BOUND * eps *
# |A|_F has a residual rotation above MC_TAIL_BOUND * eps radians (a rotation
# by theta moves the coefficient matrix A by at most theta * |A|_F).  The
# detector's known tail (acceptance criterion 5) puts about 0.3 % of trials
# there, some of them false convergences with errors near |A|_F; more than
# MC_TAIL_SHARE of a tolerance's trials fails the run.
MC_TAIL_BOUND = 20.0
MC_TAIL_SHARE = 0.01

# Tolerance of the grid-cli and piecewise detections.
EPSILON = 1e-6
# A reported rotation is wrong when its relative misfit exceeds this.  A wrong
# plane or angle misfits by 1e-2 or more; the detector's known precision tail
# (acceptance criterion 5: errors up to ~20 epsilon) stays far below it and is
# reported through the error percentiles instead of being counted as a
# failure.
MISFIT_TOL = 1e3 * EPSILON

_TAGS = {"mc-linear": 1, "grid-cli": 2, "piecewise": 3}


def input_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload], index])


def rodrigues(normal: np.ndarray, angle: float) -> np.ndarray:
    """Matrix of the right-handed rotation by ``angle`` about ``normal``."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    normal = rng.standard_normal(3)
    return rodrigues(normal, float(rng.uniform(0.0, ANGLE_CAP)))


def reported_rotation(alpha: float, plane_bivector) -> np.ndarray:
    """Rebuild a reported (alpha, plane) with Rodrigues.

    The plane's components are ordered (b12, b13, b23); its right-handed
    normal is (b23, -b13, b12).
    """
    b12, b13, b23 = (float(c) for c in plane_bivector)
    return rodrigues(np.array([b23, -b13, b12]), float(alpha))


def relative_misfit(pattern: np.ndarray, reference: np.ndarray,
                    rotation: np.ndarray, weights: np.ndarray) -> float:
    """Weighted relative L2 distance between pattern and rotated reference.

    pattern and reference are (n, 3) value arrays on the same cells, weights
    the n cell volumes.
    """
    diff = pattern - reference @ rotation.T
    num = float(weights @ np.einsum("ij,ij->i", diff, diff))
    den = float(weights @ np.einsum("ij,ij->i", pattern, pattern))
    return math.sqrt(num / den)


# ---------------------------------------------------------------------------
# mc-linear

@dataclass(frozen=True)
class McTrial:
    """One call of ``run_trials(1, epsilon, master_seed)``."""

    epsilon: float
    master_seed: int
    field_norm: float   # |A|_F of the coefficients the trial draws


def mc_field(master_seed: int) -> np.ndarray:
    """The coefficient matrix of trial 0 of ``master_seed``.

    Redrawn the way ``rotalign.experiments`` seeds a trial:
    PCG64(SeedSequence(master_seed, spawn_key=(index,))), nine uniform
    [-1, 1] coefficients first.
    """
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=(0,))))
    return rng.uniform(-1.0, 1.0, (3, 3))


def mc_trials(seed: int, count: int) -> list[McTrial]:
    """Trials cycling through the paper's tolerances.

    The program draws the field and rotation itself from master_seed, the
    way ``rotalign bench`` does; each trial gets its own master seed.
    """
    trials = []
    for i in range(count):
        master_seed = (seed << 32) | i
        trials.append(McTrial(MC_EPSILONS[i % len(MC_EPSILONS)], master_seed,
                              float(np.linalg.norm(mc_field(master_seed)))))
    return trials


# ---------------------------------------------------------------------------
# grid-cli

GRID_BOX = {"low": [-1.0, -1.0, -1.0], "high": [1.0, 1.0, 1.0]}


def cell_centers(resolution: int) -> np.ndarray:
    """Cell centers of a resolution**3 grid on [-1, 1]^3, in file order."""
    ax = (np.arange(resolution) + 0.5) * (2.0 / resolution) - 1.0
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.stack([x, y, z], axis=-1).reshape(-1, 3)


def smooth_field(rng: np.random.Generator, points: np.ndarray) -> np.ndarray:
    """A linear part as in the paper plus four random plane waves."""
    values = points @ rng.uniform(-1.0, 1.0, (3, 3)).T
    for _ in range(4):
        phase = points @ rng.normal(0.0, 2.0, 3) + rng.uniform(0.0, 2 * math.pi)
        values += np.sin(phase)[:, None] * rng.uniform(-1.0, 1.0, 3)
    return values


def grid_pair(seed: int, index: int, points: np.ndarray):
    """Reference values and their outer rotated copy on the given points."""
    rng = input_rng("grid-cli", seed, index)
    reference = smooth_field(rng, points)
    return reference, reference @ random_rotation(rng).T


def grid_document(resolution: int, data: np.ndarray) -> str:
    """A field file in the format ``rotalign detect`` reads."""
    return json.dumps({"grid": {"box": GRID_BOX,
                                "resolution": [resolution] * 3,
                                "data": data.tolist()}})


# ---------------------------------------------------------------------------
# piecewise

PIECEWISE_SPLIT = (3, 3, 2)
PIECEWISE_CELLS = math.prod(PIECEWISE_SPLIT)

@dataclass(frozen=True)
class PiecewisePair:
    """Disjoint cells (low, high corners) with reference and pattern values."""

    lows: np.ndarray
    highs: np.ndarray
    reference: np.ndarray
    pattern: np.ndarray

    @property
    def volumes(self) -> np.ndarray:
        return np.prod(self.highs - self.lows, axis=1)


def piecewise_pairs(seed: int, count: int) -> list[PiecewisePair]:
    """Fields on the 18 cells of a jittered 3x3x2 split of [-1, 1]^3.

    Each cell holds a value uniform on [-1, 1]^3, as the paper draws its
    coefficients; the pattern holds the rotated values on the same cells.
    """
    pairs = []
    for i in range(count):
        rng = input_rng("piecewise", seed, i)
        edges = [np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 1.0, n - 1)), [1.0]))
                 for n in PIECEWISE_SPLIT]
        idx = np.stack(np.unravel_index(np.arange(PIECEWISE_CELLS), PIECEWISE_SPLIT),
                       axis=1)
        lows = np.stack([edges[a][idx[:, a]] for a in range(3)], axis=1)
        highs = np.stack([edges[a][idx[:, a] + 1] for a in range(3)], axis=1)
        reference = rng.uniform(-1.0, 1.0, (PIECEWISE_CELLS, 3))
        pattern = reference @ random_rotation(rng).T
        pairs.append(PiecewisePair(lows, highs, reference, pattern))
    return pairs
