#!/usr/bin/env python3
"""The simulator's benchmark of record: one workload per invocation.

    python3 perfbench/run.py --workload attest_poll --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run builds perfbench_bin from
../src with CMake (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench); later runs rebuild only what changed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the workload twice, untraced and then traced (obs::Registry attached,
host-time spans recorded), prints the per-layer metrics and writes them,
with the spans as chrome-trace JSON, under .bench_out/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  A correctness violation prints it with "correct": false and
exits 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within 180 s; keep a margin for start-up and output.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 850
HOST_TIMES = ("setup_s", "work_per_s", "step_ms_p50", "step_ms_p90")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench_bin; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_DEADLINE_S)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "perfbench_bin"],
                   check=True, stdout=sys.stderr, timeout=BUILD_DEADLINE_S)
    return out / "perfbench_bin"


def run_binary(binary, args, trace_path, deadline):
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if trace_path is not None:
        cmd.append(f"--trace={trace_path}")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_bin exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(raw, e2e, spec_units):
    """Human-readable lines: seed, fingerprint, digests, every metric."""
    wl = raw["workload"]
    log_lines = [
        f"workload {wl} seed {raw['seed']} "
        f"(unit: one {benchlib.UNIT[wl]}; {len(raw['step_ms'])} steps, "
        f"{raw['completed']} units, {len(raw['sim_latency_ms'])} sim-latency "
        f"samples over the first {raw['min_steps']} steps)",
        "host " + " ".join(f"{k}={v}" for k, v in sorted(raw["fingerprint"].items())),
        "digests " + " ".join(f"{k}={v}" for k, v in sorted(raw["digests"].items())),
    ]
    units = dict(spec_units)
    units[benchlib.FAIL_FRAC[0]] = benchlib.FAIL_FRAC[1]
    for name, value in e2e.items():
        log_lines.append(f"  {name:<20} {value:>14.6g} {units.get(name, '')}")
    unscaled = benchlib.end_to_end(raw, scale=False)
    factors = benchlib.host_scale(raw["step_probe_ms"])
    log_lines.append(
        "host times above are at the reference speed; as measured: " +
        " ".join(f"{k}={unscaled[k]:.6g}" for k in HOST_TIMES) +
        f" (median speed factor {benchlib.percentile(factors, 0.5):.4f})")
    return log_lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw-out", type=Path, default=None,
                        help="also write the untraced run's raw result here")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        spec = benchlib.load_spec()
        binary = build()
        # The build may take most of a first run; the deadline counts from
        # the build's end.
        deadline = max(deadline, time.monotonic() + RUN_DEADLINE_S - 10)
        plain = run_binary(binary, args, None, deadline)
        traced = None
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            stem = out_dir / f"{args.workload}-seed{args.seed}"
            traced = run_binary(binary, args, f"{stem}.trace.json", deadline)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2

    if args.raw_out is not None:
        args.raw_out.write_text(json.dumps(plain) + "\n")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = benchlib.end_to_end(plain)
    for line in describe(plain, e2e, e2e_units):
        print(line)
    problems = benchlib.violations(plain)
    if traced is None:
        metrics = {name: e2e[name] for name in e2e_units}
        units = e2e_units
    else:
        problems += benchlib.violations(traced)
        metrics = benchlib.per_layer(traced, plain, layer_units)
        units = layer_units
        layers_path = out_dir / f"{args.workload}-seed{args.seed}.layers.json"
        layers_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "fingerprint": traced["fingerprint"], "layers": metrics,
             "obs": traced["obs"], "obs_digest": traced["obs_digest"],
             "digests": traced["digests"]}, indent=1, sort_keys=True) + "\n")
        print(f"obs digest {traced['obs_digest']}; per-layer metrics in "
              f"{layers_path.relative_to(ROOT)}, spans in "
              f"{stem.relative_to(ROOT)}.trace.json")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for problem in problems:
        print(f"VIOLATION {problem}")
    attempted = plain["attempted"]
    failed = attempted - plain["completed"]
    print(benchlib.result_line(not problems, attempted, failed, metrics, units))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
