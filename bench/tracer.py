"""Span tracing of the condbands public functions, from outside the package.

``Tracer.install()`` rebinds each traced function wherever a caller looks it
up: every ``condbands`` module attribute that is the original function object,
and the ``BandTable.to_csv`` and ``Kernel.eval``/``__call__`` methods on their
classes.  ``uninstall()`` puts the originals back.  Nothing under ``src/`` is
edited.

Spans stay in memory until ``layer_metrics`` reduces them.  Each thread keeps
its own span stack.  A span that opens on a worker thread with an empty stack
takes as parent the innermost open span of the thread that installed the
tracer, which is the thread that started the pool.

Self time is a span's duration minus the union of its children's intervals,
so parallel children on two threads are not subtracted twice.  Counters are
bumped after a span closes and that bookkeeping time is charged to nobody.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter

import numpy as np

import condbands
from condbands import bands, cli, estimator, experiments, kernels, simulation
from condbands.errors import InsufficientLocalData

_MODULES = (condbands, cli, bands, estimator, experiments, kernels, simulation)

# Calls that fit one (location, sample) pair: each evaluates K on all n points.
_FITS = ("estimator.cdf_curve", "estimator.regression_estimate", "estimator.local_moments")


def _count_ingest(counts, args, kwargs, out):
    counts["cli.ingest_csv.rows"] += out.n


def _count_to_csv(counts, args, kwargs, out):
    table, target = args[0], args[1] if len(args) > 1 else kwargs["path_or_buf"]
    counts["bands.to_csv.rows"] += len(table)
    if isinstance(target, (str, bytes, os.PathLike)):
        counts["bands.to_csv.bytes"] += os.path.getsize(target)


def _count_skipped(counts, args, kwargs, out):
    counts["bands.skipped_locations"] += len(out.metadata["skipped_locations"])


def _count_kernel(counts, args, kwargs, out):
    values = np.asarray(out)
    counts["kernels.eval.points"] += values.size
    counts["kernels.eval.positive"] += int(np.count_nonzero(values > 0.0))


# (owner, attribute, span name, counter hook).  A module owner means "every
# condbands module attribute bound to this function"; a class owner means the
# method on that class.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "ingest_csv", "cli.ingest_csv", _count_ingest),
    (bands.BandTable, "to_csv", "bands.to_csv", _count_to_csv),
    (bands, "cdf_band", "bands.cdf_band", _count_skipped),
    (bands, "regression_band", "bands.regression_band", _count_skipped),
    (bands, "quantile_band", "bands.quantile_band", _count_skipped),
    (bands, "band_halfwidth", "bands.band_halfwidth", None),
    (bands, "density_plugin", "bands.density_plugin", None),
    (estimator, "cdf_curve", "estimator.cdf_curve", None),
    (estimator, "regression_estimate", "estimator.regression_estimate", None),
    (estimator, "local_moments", "estimator.local_moments", None),
    (kernels.Kernel, "eval", "kernels.eval", _count_kernel),
    (simulation, "draw", "simulation.draw", None),
    (simulation, "true_cdf", "simulation.true_cdf", None),
    (simulation, "true_cdf_grid", "simulation.true_cdf_grid", None),
    (experiments, "centering_curve", "experiments.centering_curve", None),
    (experiments, "step_sup_deviation", "experiments.step_sup_deviation", None),
    (experiments, "sup_experiment", "experiments.sup_experiment", None),
)


class _ThreadState:
    def __init__(self, is_root: bool):
        self.is_root = is_root
        self.stack: list = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pairs: set = set()
        self.samples: list = []  # keeps fitted samples alive so their ids stay unique


class Tracer:
    """Collects spans and counters for the calls made while it is installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._root_ident = threading.get_ident()
        self._root_state = self._state()
        self._saved: list = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._root_ident)
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def _wrap(self, name, fn, hook):
        is_fit = name in _FITS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            if st.stack:
                parent = st.stack[-1]
            elif not st.is_root and self._root_state.stack:
                parent = self._root_state.stack[-1]
            else:
                parent = None
            # [name, start, end, parent, end of bookkeeping]
            span = [name, 0.0, 0.0, parent, 0.0]
            st.stack.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except InsufficientLocalData:
                st.counts["estimator.insufficient_local_data"] += is_fit
                raise
            finally:
                span[2] = time.perf_counter()
                st.stack.pop()
                st.spans.append(span)
                if is_fit:
                    sample = args[0]
                    st.samples.append(sample)
                    st.pairs.add((id(sample), float(args[1])))
                span[4] = time.perf_counter()
            if hook is not None:
                hook(st.counts, args, kwargs, out)
                span[4] = time.perf_counter()
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for holder in (owner,) if isinstance(owner, type) else _MODULES:
                for a, v in list(vars(holder).items()):
                    if v is original:
                        self._saved.append((holder, a, original))
                        setattr(holder, a, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_records(self) -> list:
        """Spans as [name, thread, start, end, parent index]; times from the first start."""
        spans = [(th, s) for th, st in enumerate(self._states) for s in st.spans]
        index = {id(s): k for k, (_, s) in enumerate(spans)}
        t0 = min((s[1] for _, s in spans), default=0.0)
        return [[s[0], th, s[1] - t0, s[2] - t0, index.get(id(s[3]))] for th, s in spans]

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the traced calls, for a traced wall time ``wall``."""
        spans = [s for st in self._states for s in st.spans]
        children: dict[int, list] = {}
        for s in spans:
            if s[3] is not None:
                children.setdefault(id(s[3]), []).append(s)
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for s in spans:
            start, end = s[1], s[2]
            covered = 0.0
            edge = start
            for c in sorted(children.get(id(s), ()), key=lambda c: c[1]):
                lo, hi = max(c[1], edge), min(c[4], end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            self_s[s[0]] += (end - start) - covered
            calls[s[0]] += 1
        counts: Counter = Counter()
        pairs: set = set()
        for st in self._states:
            counts.update(st.counts)
            pairs |= st.pairs
        roots = sum(s[2] - s[1] for s in self._root_state.spans if s[3] is None)
        fits = sum(calls[name] for name in _FITS)
        points = counts["kernels.eval.points"]

        return {
            "cli.main.self_s": self_s["cli.main"],
            "cli.ingest_csv.s": self_s["cli.ingest_csv"],
            "cli.ingest_csv.rows": counts["cli.ingest_csv.rows"],
            "bands.to_csv.s": self_s["bands.to_csv"],
            "bands.to_csv.rows": counts["bands.to_csv.rows"],
            "bands.to_csv.bytes": counts["bands.to_csv.bytes"],
            "bands.cdf_band.self_s": self_s["bands.cdf_band"],
            "bands.regression_band.self_s": self_s["bands.regression_band"],
            "bands.quantile_band.self_s": self_s["bands.quantile_band"],
            "bands.band_halfwidth.s": self_s["bands.band_halfwidth"],
            "bands.band_halfwidth.calls": calls["bands.band_halfwidth"],
            "bands.density_plugin.s": self_s["bands.density_plugin"],
            "bands.density_plugin.calls": calls["bands.density_plugin"],
            "bands.skipped_locations": counts["bands.skipped_locations"],
            "estimator.cdf_curve.s": self_s["estimator.cdf_curve"],
            "estimator.cdf_curve.calls": calls["estimator.cdf_curve"],
            "estimator.regression_estimate.s": self_s["estimator.regression_estimate"],
            "estimator.regression_estimate.calls": calls["estimator.regression_estimate"],
            "estimator.local_moments.s": self_s["estimator.local_moments"],
            "estimator.local_moments.calls": calls["estimator.local_moments"],
            "estimator.insufficient_local_data": counts["estimator.insufficient_local_data"],
            "estimator.fits_per_location": fits / len(pairs) if pairs else 0.0,
            "kernels.eval.s": self_s["kernels.eval"],
            "kernels.eval.calls": calls["kernels.eval"],
            "kernels.eval.points": points,
            "kernels.eval.support_frac": counts["kernels.eval.positive"] / points if points else 0.0,
            "simulation.draw.s": self_s["simulation.draw"],
            "simulation.true_cdf.s": self_s["simulation.true_cdf"],
            "simulation.true_cdf_grid.s": self_s["simulation.true_cdf_grid"],
            "experiments.centering_curve.s": self_s["experiments.centering_curve"],
            "experiments.centering_curve.calls": calls["experiments.centering_curve"],
            "experiments.step_sup_deviation.s": self_s["experiments.step_sup_deviation"],
            "experiments.sup_experiment.self_s": self_s["experiments.sup_experiment"],
            "trace.coverage": roots / wall if wall > 0 else 0.0,
        }


def module_shares(metrics: dict) -> dict:
    """Share of summed self time per module (cli, bands, ...), from layer metrics."""
    per_module: Counter = Counter()
    for name, value in metrics.items():
        if name.endswith((".s", ".self_s")):
            per_module[name.split(".", 1)[0]] += value
    total = sum(per_module.values())
    return {mod: (v / total if total else 0.0) for mod, v in sorted(per_module.items())}
