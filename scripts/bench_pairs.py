#!/usr/bin/env python3
"""Interleaved parent/change runs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N \\
        --out BENCH_N.json [--first-seed 51] [--change TEXT] [--claim WORKLOAD/METRIC]

PARENT_TREE and CHANGE_TREE are full checkouts (``src``, ``tests/reference.py``
and ``perfbench``); each tree runs its own ``perfbench/run.py --seconds S
--trace 0`` (S is ``run_seconds`` of the change tree's ``BENCHMARK.json``)
under ``OPENBLAS_NUM_THREADS=1``.  Pair i runs both trees on seed
FIRST_SEED + i, one after the other; the parent goes first on even i, the
change on odd i, so a drift in host speed does not favour one side.

The summary of the workload goes into ``--out`` under ``workloads``, beside
the workloads already there: per end-to-end metric of ``BENCHMARK.json``, the
median and quartiles (``statistics.quantiles(values, n=4)``) of each side,
the change's median over the parent's, the number of pairs the change won
(ties count for neither) and every run's value; and the benchmark's counts of
attempted and failed operations, summed over each side's runs, with each
run's failed checks (the ``FAILED`` lines of its output, counted by check,
per side and seed).  ``--claim`` names the one end-to-end metric the change
claims to improve, and on which workload, in the benchmark's own key form
(``train-sweep/train_seq_per_s``); both names must be ones the change tree's
``BENCHMARK.json`` declares.  Nothing under either tree is written.  Uses the
standard library only.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one benchmark run in ``tree``, with its
    provenance line, or an error naming the run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0])["provenance"]
    result["failures"] = collections.Counter(
        line[len("FAILED "):].split(":")[0] for line in proc.stdout.splitlines()
        if line.startswith("FAILED "))
    return result


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        med = {side: statistics.median(v) for side, v in values.items()}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "parent_median": round(med["parent"], 6),
            "change_median": round(med["change"], 6),
            "change_over_parent": round(med["change"] / med["parent"], 4),
            **{f"{side}_quartiles": [round(q, 6) for q in
                                     statistics.quantiles(values[side], n=4)[::2]]
               for side in SIDES},
            "change_better_pairs": wins,
            **{f"{side}_values": [round(v, 6) for v in values[side]] for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON file to write or update")
    ap.add_argument("--first-seed", type=int, default=51)
    ap.add_argument("--change", help="one line naming the change measured")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="the workload and end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need at least 2 pairs for quartiles")
    with open(os.path.join(args.change_tree, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.claim:
        workload, _, metric = args.claim.partition("/")
        if workload not in {w["name"] for w in bench["workloads"]}:
            ap.error(f"--claim: unknown workload {workload!r}")
        if metric not in {m["name"] for m in bench["end_to_end"]}:
            ap.error(f"--claim: unknown end-to-end metric {metric!r}")
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(trees[side], args.workload, seed, seconds)
            runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: failed "
                  f"{result['failed']}/{result['attempted']}", file=sys.stderr)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    prov = runs["change"][0]["provenance"]
    doc.setdefault("change", args.change or "")
    if args.claim:
        doc["claim"] = {"metric": metric, "workload": workload}
    doc["command"] = (f"OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py --workload W "
                      f"--seed S --seconds {seconds:g} --trace 0")
    doc["host"] = (f"{prov['nproc']}-vCPU {prov['cpu']}, Python {prov['python']}, "
                   f"numpy {prov['numpy']} ({prov['blas']}, {prov['blas_threads']} thread)")
    doc["pairing"] = ("parent and change run back to back from separate trees, same seed "
                      "per pair; the parent ran first on the even pairs (0-based), the "
                      "change on the odd ones")
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs,
        "seeds": seeds,
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "failed_checks": {side: {str(seed): r["failures"] for seed, r in zip(seeds, runs[side])
                                 if r["failures"]} for side in SIDES},
        "metrics": summarise(bench["end_to_end"], runs),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
