"""Layer timing from outside the program.

A traced run replaces module-level names that the calling modules import
(``rotalign.detector.correlate_at_origin`` and so on) with wrappers that
record a span per call.  Spans nest through a stack: a layer's self time is
its span minus the spans of the wrapped calls made inside it, so the self
times of all layers add up to the root span, the call into the workload's
entry point.  A name that a later version of the program no longer has is
skipped, and its layer reports 0 calls.  Untraced runs install nothing.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    cell_pairs: int = 0
    bytes_computed: int = 0


def _count_correlation(stats: LayerStats, a, b) -> None:
    """Work counts of one correlation, from the arguments' sizes.

    cell_pairs is the number of box pairs a piecewise/piecewise correlation
    intersects; bytes_computed is the size of the sampled value arrays a grid
    correlation reads, computed from array sizes rather than measured.
    """
    cells_a, cells_b = getattr(a, "cells", None), getattr(b, "cells", None)
    if cells_a is not None and cells_b is not None:
        stats.cell_pairs += len(cells_a) * len(cells_b)
    for field in (a, b):
        data = getattr(field, "data", None)
        if data is not None:
            stats.bytes_computed += data.nbytes


# (module, name, layer, counter): the wrapped call sites.  fields.rotate
# covers both callers of rotate_outer: the detector's passes and the
# pattern a Monte-Carlo trial builds before detecting.
WRAPPED = (
    ("rotalign.detector", "correlate_at_origin", "correlation", _count_correlation),
    ("rotalign.detector", "rotate_outer", "fields.rotate", None),
    ("rotalign.detector", "l2_norm", "fields.norm", None),
    ("rotalign.detector", "compose_rotation", "ga3.compose", None),
    ("rotalign.detector", "rotation_rotor", "ga3.rotor", None),
    ("rotalign.fields", "rotation_matrix", "ga3.rotation_matrix", None),
    ("rotalign.experiments", "rotate_outer", "fields.rotate", None),
    ("rotalign.experiments", "draw_trial", "experiments.draw", None),
    ("rotalign.experiments", "detect", "detector", None),
    ("rotalign.experiments", "coefficient_error", "experiments.score", None),
    ("rotalign.cli", "load_field", "cli.load", None),
    ("rotalign.cli", "detect", "detector", None),
)

# Root layer of each workload: the benchmark's own call into the program.
ROOTS = ("experiments", "cli", "detector")


class Tracer:
    """Per-layer span statistics for the calls made while installed."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        for _, _, layer, _ in WRAPPED:
            self.layers.setdefault(layer, LayerStats())
        for layer in ROOTS:
            self.layers.setdefault(layer, LayerStats())
        self._children: list[int] = []

    def _enter(self) -> int:
        self._children.append(0)
        return time.perf_counter_ns()

    def _exit(self, layer: str, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        children = self._children.pop()
        stats = self.layers[layer]
        stats.calls += 1
        stats.total_ns += elapsed
        stats.self_ns += elapsed - children
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, layer: str, fn, counter=None):
        stats = self.layers[layer]

        def traced(*args, **kwargs):
            if counter is not None:
                counter(stats, *args)
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, start)

        return traced

    @contextmanager
    def span(self, layer: str):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(layer, start)

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, name, layer, counter in WRAPPED:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, name, None)
                if original is None:
                    continue
                saved.append((module, name, original))
                setattr(module, name, self.wrap(layer, original, counter))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
