"""Compare a parent and a change with the benchmark, by alternating pairs.

    python3 bench/compare.py pairs --parent CHECKOUT --change CHECKOUT \\
        --workload NAME --out DIR
    python3 bench/compare.py report DIR
    python3 bench/compare.py summary DIR

``pairs`` runs this checkout's ``run.py`` untraced against each side's
``src/``, PAIRS times, both sides on the same seed within a pair and a new seed
for each pair (SEED_BASE, SEED_BASE + 1, ...), and alternates which side runs
first.  Result files go to ``DIR/<workload>/``.

``report`` gives, per workload and end-to-end metric, each side's median and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict:

    improved       the change won at least 9 of 10 pairs and the medians differ
                   by more than the parent's interquartile range
    no worse       the change's median is within the metric's bound of the
                   parent's, and the parent's spread is within the bound
    worse          the change's median is worse by more than the bound
    unresolved     the parent's runs spread wider than the bound, so neither of
                   the last two can be told, unless every change run beats
                   every parent run

``summary`` reduces a set of result files of one commit to medians, quartiles
and per-module shares of self time; ``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLAIM_WIN_SHARE = 0.9
PAIRS = 10
SEED_BASE = 1000


def _spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_pairs(args) -> int:
    spec = _spec()
    out = os.path.join(args.out, args.workload)
    os.makedirs(out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for i in range(PAIRS):
        seed = SEED_BASE + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            path = os.path.join(out, f"{side}-{i:02d}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--root", sides[side],
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0",
                   "--result", path]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=300)
            if proc.returncode != 0:
                print(f"pair {i} {side}: run.py exited {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            with open(path) as fh:
                doc = json.load(fh)
            doc["pair"] = {"index": i, "side": side, "position": position}
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"pair {i} {side}: {proc.stdout.splitlines()[-1]}")
    return 0


def _load(directory: str) -> list[dict]:
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as fh:
            doc = json.load(fh)
        if "provenance" in doc and "metrics" in doc:
            docs.append(doc)
    return docs


def verdict(metric: dict, parent: dict, change: dict) -> dict:
    """Judge one metric on one workload from paired values {pair index: value}."""
    lower = metric["better"] == "lower"
    common = sorted(set(parent) & set(change))
    p_vals = [parent[i] for i in common]
    c_vals = [change[i] for i in common]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(p_vals, c_vals))
    gain = (p_med - c_med) if lower else (c_med - p_med)
    worse_share = -gain / p_med
    spread = (p_q3 - p_q1) / p_med
    all_better = (max(c_vals) < min(p_vals)) if lower else (min(c_vals) > max(p_vals))
    if wins >= CLAIM_WIN_SHARE * len(common) and gain > p_q3 - p_q1 and len(common) >= PAIRS:
        word = "improved"
    elif spread > metric["bound"] and not all_better:
        word = "unresolved"
    elif worse_share <= metric["bound"]:
        word = "no worse"
    else:
        word = "worse"
    return {"pairs": len(common), "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "won_share": wins / len(common), "worse_share": worse_share,
            "parent_spread": spread, "bound": metric["bound"], "verdict": word}


def report(args) -> int:
    spec = _spec()
    docs = [d for d in _load(args.dir) if "pair" in d]
    if not docs:
        print(f"no paired result files under {args.dir}", file=sys.stderr)
        return 1
    rows = []
    for workload in sorted({d["provenance"]["workload"] for d in docs}):
        mine = [d for d in docs if d["provenance"]["workload"] == workload]
        by_side = {s: {d["pair"]["index"]: d for d in mine if d["pair"]["side"] == s}
                   for s in ("parent", "change")}
        failed = {s: sum(d["failed"] for d in by_side[s].values()) for s in by_side}
        firsts = [d["pair"]["side"] for d in mine if d["pair"]["position"] == 0]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(metric,
                          {i: d["metrics"][name]["value"] for i, d in by_side["parent"].items()},
                          {i: d["metrics"][name]["value"] for i, d in by_side["change"].items()})
            if failed["change"] > failed["parent"] and row["verdict"] == "improved":
                row["verdict"] = "unresolved (more failed passes than the parent)"
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       failed=failed, alternated="parent" in firsts and "change" in firsts)
            rows.append(row)
    print(f"{'workload':16} {'metric':12} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'won':>5} {'Δmed':>7} verdict")
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:16} {r['metric']:12} {p:>26} {c:>26} {r['won_share']:5.2f} "
              f"{(r['change'][1] - r['parent'][1]) / r['parent'][1]:+7.1%} {r['verdict']}")
    for w in sorted({r["workload"] for r in rows}):
        r = next(r for r in rows if r["workload"] == w)
        print(f"{w}: {r['pairs']} pairs, failed passes parent {r['failed']['parent']} / "
              f"change {r['failed']['change']}" + ("" if r["alternated"] else
                                                    "; WARNING: sides did not alternate"))
    return 0


def summary(args) -> int:
    spec = _spec()
    docs = _load(args.dir)
    out = {}
    for workload in sorted({d["provenance"]["workload"] for d in docs}):
        mine = [d for d in docs if d["provenance"]["workload"] == workload]
        plain = [d for d in mine if not d["provenance"]["traced"]]
        traced = [d for d in mine if d["provenance"]["traced"]]
        entry = {"runs": len(plain), "traced_runs": len(traced),
                 "seeds": sorted({d["provenance"]["seed"] for d in mine}),
                 "provenance": {k: plain[0]["provenance"][k] for k in
                                ("commit", "src_sha256", "python", "numpy", "scipy", "machine",
                                 "nproc", "params", "seconds")} if plain else None,
                 "failed_passes": sum(d["failed"] for d in mine),
                 "end_to_end": {}, "per_layer": {}, "module_shares": {}}
        for m in spec["end_to_end"]:
            vals = [d["metrics"][m["name"]]["value"] for d in plain]
            if vals:
                q1, med, q3 = quartiles(vals)
                entry["end_to_end"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                                   "iqr_share": (q3 - q1) / med,
                                                   "unit": m["unit"]}
        for m in spec["per_layer"]:
            vals = [d["metrics"][m["name"]]["value"] for d in traced]
            if vals:
                entry["per_layer"][m["name"]] = {"median": statistics.median(vals),
                                                  "unit": m["unit"]}
        if traced:
            mods = traced[0]["module_shares"]
            entry["module_shares"] = {mod: statistics.median(d["module_shares"][mod] for d in traced)
                                      for mod in mods}
        out[workload] = entry
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paired parent/change comparison")
    sub = p.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("pairs", help="run alternating parent/change pairs")
    q.add_argument("--parent", required=True, help="checkout of the parent commit")
    q.add_argument("--change", required=True, help="checkout of the change")
    q.add_argument("--workload", required=True)
    q.add_argument("--out", required=True)
    q = sub.add_parser("report", help="verdicts from paired result files")
    q.add_argument("dir")
    q = sub.add_parser("summary", help="medians, quartiles and shares of one commit")
    q.add_argument("dir")
    args = p.parse_args(argv)
    return {"pairs": run_pairs, "report": report, "summary": summary}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
