"""condbands benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--result FILE] [--root CHECKOUT] [--record-digests]

Workloads are listed in ``BENCHMARK.json`` and described in ``workloads.py``.
Run from the root of a checkout; ``--root`` points the same benchmark code at
another checkout's ``src/`` (``compare.py pairs`` uses this).

``--trace 0`` reports the end-to-end metrics:

    setup_s      median over SETUP_RUNS fresh processes of interpreter start,
                 package import and making the workload's inputs; some run
                 before the timed passes and the rest after them, so the
                 median spans the same stretch of time as the passes
    wall_s       wall seconds of the fastest timed pass, at reference speed
    cpu_s        user + system CPU seconds of the least costly timed pass,
                 children included, at reference speed
    peak_rss_mb  peak resident memory of the measured process plus its largest child

On a shared host other tenants slow the machine down, in bursts of a fraction
of a second and in phases of a minute or more.  On 2 vCPUs the medians of
whole runs of the same code spread 25-30 % between runs, and the fastest pass
of a run still spread 9-19 %.  So the passes are short (about half a second),
a run holds dozens of them and its fastest one is used, which drops the
bursts; and after every pass the worker times ``reference_loop``, a fixed
loop that uses no condbands code, whose fastest time in the run tells how fast
the host was during that run.  A time "at reference speed" is the measured
time times REF_S over that fastest reference time, which drops the phases.
The raw fastest and median pass times and the speed factor are printed on a
text line and kept in the ``--result`` document.

The first pass of a run is a warm-up whose time is not used.  ``--trace 1``
then alternates traced and untraced passes and reports the per-layer metrics
of ``tracer.py``.  Either way every pass's output is checked after
the measured process has ended (see ``workloads.py``); a pass that raises or
whose output fails a check counts as failed, and ``error_rate`` is failed over
attempted passes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Only files inside the checkout are read or written: work files go to
``.bench_work/`` and are removed at the end.  ``--result`` also writes a JSON
document with the per-pass samples and a provenance stamp.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
REF_S = 0.03  # fastest reference_loop time in a worker on a calm 2-vCPU x86-64 host
BUDGET_S = 170.0  # the whole run, set-up and checks included, must end within 180 s
DIGESTS = os.path.join(BENCH_DIR, "digests.json")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def _src_digest(root: str) -> str:
    pkg = os.path.join(root, "src", "condbands")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, root: str, workload: str, seed: int, deadline: float):
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.workdir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")

    def _worker(self, *extra: str) -> None:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", self.root,
               "--workdir", self.workdir, "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(cmd, timeout=remaining, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")

    def setup_times(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            self._worker("--setup-only")
            times.append(time.perf_counter() - t0)
        return times

    def measure(self, seconds: int, trace: int) -> dict:
        self._worker("--seconds", str(seconds), "--trace", str(trace))
        with open(os.path.join(self.workdir, "worker.json")) as fh:
            return json.load(fh)


def _fingerprint(env: dict) -> str:
    return hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]


def _recorded_digests(env: dict) -> dict | None:
    try:
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return None
    return recorded.get(_fingerprint(env))


def judge_passes(runner: Runner, doc: dict, recording: bool) -> tuple[list[dict], list[str]]:
    """Check every distinct output once and mark each pass ok or failed.

    While ``recording`` the digests are about to be replaced, so the outputs
    are not compared with the recorded ones.
    """
    import workloads

    wl = workloads.WORKLOADS[runner.workload](runner.workdir, runner.seed)
    notes = []
    expected = None
    if runner.seed == workloads.DEFAULT_SEED and not recording:
        expected = (_recorded_digests(doc["env"]) or {}).get(runner.workload)
        if expected is None:
            notes.append("no output digest recorded for this platform; digest check skipped")
    verdicts = {}
    for p in doc["passes"]:
        if p["error"] is not None or p["digest"] in verdicts:
            continue
        try:
            problems = wl.check(p["out_dir"])
        except Exception as exc:  # a malformed output must count as a failed pass
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if expected is not None and p["files"] != expected:
            problems.append("output digest differs from the recorded one")
        verdicts[p["digest"]] = problems
    untraced = [p["digest"] for p in doc["passes"] if p["error"] is None and not p["traced"]]
    modal = collections.Counter(untraced).most_common(1)[0][0] if untraced else None
    results = []
    for i, p in enumerate(doc["passes"]):
        problems = [p["error"]] if p["error"] is not None else list(verdicts[p["digest"]])
        if p["error"] is None and p["digest"] != modal:
            problems.append("output bytes differ from the untraced passes")
        results.append({"pass": i, "warmup": p["warmup"], "traced": p["traced"],
                        "wall": p["wall"], "cpu": p["cpu"], "ref": p["ref"], "ok": not problems,
                        "problems": problems})
    return results, notes


def record_digests(runner: Runner, doc: dict) -> None:
    try:
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    key = _fingerprint(doc["env"])
    entry = recorded.setdefault(key, {"env": doc["env"]})
    entry[runner.workload] = doc["passes"][0]["files"]
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="condbands benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--result", help="also write the full result document here")
    p.add_argument("--root", default=os.path.dirname(BENCH_DIR),
                   help="checkout whose src/ is measured (default: this one)")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the reference for its seed")
    args = p.parse_args(argv)
    # On SIGTERM unwind normally, so the running worker is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must lie in 1..60")
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "condbands", "__init__.py")):
        print(f"error: no condbands sources under {root}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    runner = Runner(root, args.workload, args.seed, start + BUDGET_S)
    os.makedirs(runner.workdir)
    try:
        setup = [] if args.trace else runner.setup_times(SETUP_RUNS - SETUP_RUNS // 2)
        doc = runner.measure(args.seconds, args.trace)
        if not args.trace:
            setup += runner.setup_times(SETUP_RUNS // 2)
        passes, notes = judge_passes(runner, doc, args.record_digests)
        if args.record_digests:
            if not all(r["ok"] for r in passes):
                raise BenchError("refusing to record digests of failing outputs")
            record_digests(runner, doc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runner.workdir))
        except OSError:
            pass

    attempted = len(passes)
    failed = sum(not r["ok"] for r in passes)
    if args.trace:
        wanted = spec["per_layer"]
        values = doc["layers"]
    else:
        wanted = spec["end_to_end"]
        timed = [r for r in passes if not r["warmup"]]
        speed = REF_S / min(r["ref"] for r in passes)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": min(r["wall"] for r in timed) * speed,
            "cpu_s": min(r["cpu"] for r in timed) * speed,
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for r in passes:
        for problem in r["problems"]:
            print(f"pass {r['pass']} failed: {problem}")
    if args.trace and not doc["layer_counts_repeat"]:
        notes.append("a per-layer count differed between traced passes")
    for note in notes:
        print(f"note: {note}")
    count = f"{attempted - 1} passes after a warm-up" + (", alternately traced" if args.trace else "")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"(wall_s and cpu_s: fastest of {count} times {speed:.4g}, the speed factor; "
              f"as measured, fastest {min(r['wall'] for r in timed):.6g} s and "
              f"{min(r['cpu'] for r in timed):.6g} s, median "
              f"{statistics.median(r['wall'] for r in timed):.6g} s and "
              f"{statistics.median(r['cpu'] for r in timed):.6g} s; "
              f"setup_s: median of {SETUP_RUNS} processes)")
    print(f"error_rate: {failed / attempted:.6g} failed/attempted ({failed} of {attempted} passes)")

    if args.result:
        provenance = {
            "commit": _git_commit(root),
            "src_sha256": _src_digest(root),
            **doc["env"],
            "workload": args.workload,
            "params": workloads.WORKLOADS[args.workload].params,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": bool(args.trace),
            "started": started,
        }
        result = {
            "provenance": provenance,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "metrics": metrics,
            "samples": {"wall_s": [r["wall"] for r in passes if not r["traced"] and not r["warmup"]],
                        "cpu_s": [r["cpu"] for r in passes if not r["traced"] and not r["warmup"]],
                        "ref_s": [r["ref"] for r in passes],
                        "setup_s": setup},
            "passes": passes,
            "notes": notes,
        }
        if args.trace:
            result["module_shares"] = doc["module_shares"]
            result["layer_counts_repeat"] = doc["layer_counts_repeat"]
            result["spans"] = doc["spans"]
        with open(args.result, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
