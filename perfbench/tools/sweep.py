#!/usr/bin/env python3
"""Repeated runs of the benchmark: run-to-run spread, comparisons and the
sensitivity matrix.  Run from the root of a checkout.

  sweep.py run --workload W --seeds 1,2,3 --seconds 20 [--env K=V ...] --out F
      runs perfbench/run.py once per seed and records every run's metrics,
      digests and host fingerprint in F (JSON)
  sweep.py spread F...
      inter-quartile spread of each end-to-end metric as a share of its
      median, against a third of the metric's bound
  sweep.py compare BASE NEW
      per end-to-end metric: pass / fail / unresolved, or "not comparable
      on this host" when the fingerprints differ; fields a sweep's --env
      overrides on purpose are ignored.  Also checks that every
      simulated-time metric and digest is identical for each seed the two
      sweeps share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402

SIM_METRICS = ("sim_latency_ms_p50", "sim_latency_ms_p90")


def cmd_run(args):
    env = dict(os.environ)
    for pair in args.env:
        key, _, value = pair.partition("=")
        env[key] = value
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        raw_path = out_dir / f"{args.workload}-seed{seed}.raw.json"
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0", "--raw-out", str(raw_path)],
            env=env, stdout=subprocess.PIPE, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = json.loads(raw_path.read_text())
        metrics = benchlib.end_to_end(raw)
        runs.append({"seed": seed, "exit": proc.returncode,
                     "correct": last["correct"], "metrics": metrics,
                     "digests": raw["digests"],
                     "fingerprint": raw["fingerprint"]})
        print(f"{args.workload} seed {seed}: exit {proc.returncode} " +
              " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    Path(args.out).write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "env": args.env,
         "runs": runs}, indent=1) + "\n")


def cmd_spread(args):
    spec = benchlib.load_spec()
    for path in args.files:
        data = json.loads(Path(path).read_text())
        print(f"{data['workload']} ({len(data['runs'])} runs, env {data['env']})")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in data["runs"]]
            s = benchlib.spread(values)
            flag = "" if s < m["bound"] / 3 else "  above bound/3"
            print(f"  {m['name']:<20} median {statistics.median(values):<12.6g}"
                  f" spread {s:.4f} (bound {m['bound']}){flag}")


def cmd_compare(args):
    spec = benchlib.load_spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    ignore = [k for pair in base["env"] + new["env"] for k in
              benchlib.ENV_FINGERPRINT.get(pair.partition("=")[0], ())]
    print(f"{new['workload']}: env {new['env']} vs {base['env']}")
    for m in spec["end_to_end"]:
        verdict = benchlib.compare(
            [r["metrics"][m["name"]] for r in base["runs"]],
            [r["metrics"][m["name"]] for r in new["runs"]],
            m["bound"], m["better"], base["runs"][0]["fingerprint"],
            new["runs"][0]["fingerprint"], ignore)
        print(f"  {m['name']:<20} {verdict}")
    by_seed = {r["seed"]: r for r in base["runs"]}
    same = True
    for r in new["runs"]:
        b = by_seed.get(r["seed"])
        if b is None:
            continue
        for name in SIM_METRICS:
            if r["metrics"][name] != b["metrics"][name]:
                same = False
                print(f"  seed {r['seed']}: {name} {r['metrics'][name]} != "
                      f"{b['metrics'][name]}")
        for name in sorted(set(r["digests"]) & set(b["digests"])):
            if r["digests"][name] != b["digests"][name]:
                same = False
                print(f"  seed {r['seed']}: digest {name} {r['digests'][name]} != "
                      f"{b['digests'][name]}")
    print(f"  simulated-time metrics and digests identical: {same}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    run.add_argument("--seeds", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--env", action="append", default=[])
    run.add_argument("--out", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("files", nargs="+")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    main()
