"""The measured process of one benchmark run; ``run.py`` starts it.

    python3 bench/worker.py --root ROOT --workdir DIR --workload NAME --seed N
                            (--setup-only | --seconds S --trace 0|1)

It makes the workload's inputs, then repeats timed passes until ``S`` seconds
have gone by, and writes ``DIR/worker.json``.  Each distinct output of a pass
is kept under ``DIR/out-<k>/`` for ``run.py`` to check after this process has
ended, so checking adds nothing to this process's memory or time.

The first pass is a warm-up: its output is checked but its time is not used.
With ``--trace 1`` traced and untraced passes then alternate; the traced ones
give the per-layer metrics and the pairs give the tracing overhead.  Spans
stay in memory and those of the last traced pass are written out at the end.

After every pass the fixed ``reference_loop`` is timed as well, so that
``run.py`` can tell how fast the shared host ran while the passes did.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def _rusage_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    """Library versions and the CPU features numpy dispatches on."""
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as feats
    except ImportError:
        feats = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu_features": sorted(k for k, on in feats.items() if on),
    }


def reference_loop() -> float:
    """Seconds of a fixed loop that uses no condbands code.

    It does the two kinds of work the workloads spend their time on: Python
    float formatting through ``csv.writer`` and numpy kernel sums.
    """
    import numpy as np

    xs = np.linspace(-1.0, 1.0, 50_000)
    t0 = time.perf_counter()
    writer = csv.writer(io.StringIO())
    for i in range(20_000):
        writer.writerow([repr(i * 0.1), repr(i * 0.3)])
    total = 0.0
    for k in range(80):
        total += float(np.maximum(0.0, 1.0 - (xs - 0.01 * k) ** 2).sum())
    return time.perf_counter() - t0


def _one_pass(wl, tracer=None) -> dict:
    if tracer is not None:
        tracer.install()
    result, error = None, None
    c0, t0 = _rusage_cpu(), time.perf_counter()
    try:
        result = wl.run()
    except Exception:
        error = traceback.format_exc()
    t1, c1 = time.perf_counter(), _rusage_cpu()
    if tracer is not None:
        tracer.uninstall()
    return {"wall": t1 - t0, "cpu": c1 - c0, "traced": tracer is not None,
            "result": result, "error": error}


def measure(wl, workdir: str, seconds: float, traced_mode: bool, setup_layers) -> dict:
    import checks
    from tracer import Tracer, module_shares

    passes, kept, layer_runs = [], {}, []
    start = None
    while True:
        # Pass 0 warms the allocator and lazy imports; it is checked, not timed.
        tracer = Tracer() if traced_mode and len(passes) % 2 == 0 and passes else None
        rec = _one_pass(wl, tracer)
        rec["warmup"] = not passes
        result = rec.pop("result")
        if rec["error"] is None:
            try:
                files = {name: checks.sha256_file(path)
                         for name, path in wl.write_outputs(result).items()}
            except Exception:
                rec["error"] = traceback.format_exc()
        del result
        if rec["error"] is None:
            digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
            # Keep one copy of each distinct output; remove repeats so that every
            # pass writes fresh files rather than truncating old ones.
            new = digest not in kept
            if new:
                kept[digest] = os.path.join(workdir, f"out-{len(kept)}")
                os.makedirs(kept[digest])
            for name in files:
                path = os.path.join(workdir, name)
                if new:
                    os.replace(path, os.path.join(kept[digest], name))
                else:
                    os.remove(path)
            rec.update(digest=digest, files=files, out_dir=kept[digest])
        if tracer is not None:
            layers = tracer.layer_metrics(rec["wall"])
            for name, value in setup_layers.items():
                if name.startswith("simulation."):
                    layers[name] += value
            layer_runs.append(layers)
            spans = tracer.span_records()
        rec["ref"] = reference_loop()
        passes.append(rec)
        if start is None:
            start = time.perf_counter()
        elif time.perf_counter() - start >= seconds and (not traced_mode or len(passes) >= 3):
            break

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {"passes": passes, "peak_rss_mb": (own + kid) / 1024.0}
    if traced_mode:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        untraced = statistics.median(
            p["wall"] for p in passes if not p["traced"] and not p["warmup"])
        traced = statistics.median(p["wall"] for p in passes if p["traced"])
        layers["trace.overhead_frac"] = (traced - untraced) / untraced
        doc["layers"] = layers
        doc["layer_counts_repeat"] = all(
            r[k] == layer_runs[0][k] for r in layer_runs for k in r
            if not k.endswith((".s", ".self_s")) and not k.startswith("trace.")
        )
        doc["module_shares"] = module_shares(layers)
        doc["spans"] = spans  # of the last traced pass
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.workdir, args.seed)
    if args.setup_only:
        wl.setup()
        return 0
    setup_layers = {}
    if args.trace:
        from tracer import Tracer

        t0 = time.perf_counter()
        with Tracer() as setup_tracer:
            wl.setup()
        setup_layers = setup_tracer.layer_metrics(time.perf_counter() - t0)
    else:
        wl.setup()
    doc = measure(wl, args.workdir, args.seconds, bool(args.trace), setup_layers)
    doc["env"] = environment()
    with open(os.path.join(args.workdir, "worker.json"), "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
