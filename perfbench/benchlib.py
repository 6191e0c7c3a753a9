"""Statistics, correctness gate and result shape of the benchmark.

perfbench_bin reports raw measurements; everything here turns them into
the metrics BENCHMARK.json names.  run.py, the tools under tools/ and the
unit tests in tests/ share this one module.
"""

import json
import math
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WORKLOADS = ("attest_poll", "tenant_churn", "rack_fabric")

# What one unit of work is, per workload (README.md, "Workloads").
UNIT = {
    "attest_poll": "verified quote",
    "tenant_churn": "provisioned node",
    "rack_fabric": "quote exchange",
}

# A timing percentile is reported only when at least this many samples lie
# beyond it (so p90 needs 100 samples).
MIN_SAMPLES_BEYOND = 10

# fail_frac is printed with the other end-to-end metrics but is not a
# BENCHMARK.json metric: it is 0 on every correct run, and a metric whose
# median is 0 has no relative bound.  A failed unit fails the run instead.
FAIL_FRAC = ("fail_frac", "ratio")

# Fingerprint fields an environment override changes on purpose.  A
# sensitivity sweep that sets the override ignores them when comparing.
ENV_FINGERPRINT = {"BOLTED_FORCE_SCALAR": ("force_scalar",)}


# ProbeHostMs() on the reference host (4-core Xeon, g++ 12.2,
# RelWithDebInfo) when nothing else contends for it.  Host times are
# reported at this speed: each is multiplied by its host_scale() factor.
# The constant only fixes the scale; a host's metrics compare with that
# host's own earlier metrics (see fingerprint_diff).
REFERENCE_PROBE_MS = 2.0
# Probes on either side of a sample whose median its scale factor uses:
# one probe takes a couple of milliseconds, the host's speed holds for
# about a second.
PROBE_WINDOW = 2


def load_spec(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def percentile(samples, q):
    """Linear-interpolated percentile q in [0, 1] of the samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie strictly beyond percentile q."""
    return n - 1 - math.floor(q * (n - 1))


def tail_percentile(samples, q):
    """Percentile q, refusing a tail with fewer than ten samples beyond it."""
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(samples)} samples has only {beyond} "
            f"beyond it; need {MIN_SAMPLES_BEYOND}")
    return percentile(samples, q)


def per_unit(total, units):
    """A count or a time normalised to units of work (0 for no units)."""
    return total / units if units else 0.0


def host_scale(probe_ms):
    """Per-sample factors that take host times to the reference speed.

    The probe beside each sample, smoothed by a median over PROBE_WINDOW
    neighbours on either side, against its reference time.
    """
    factors = []
    for i in range(len(probe_ms)):
        window = probe_ms[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        factors.append(REFERENCE_PROBE_MS / statistics.median(window))
    return factors


def scaled(times, probe_ms):
    """Host times at the reference speed (one probe per time)."""
    return [t * f for t, f in zip(times, host_scale(probe_ms), strict=True)]


def end_to_end(raw, scale=True):
    """The eight end-to-end metrics of one untraced run: {name: value}.

    Host times are taken to the reference speed unless scale is False.
    """
    attempted = raw["attempted"]
    steps, setups = raw["step_ms"], raw["setup_s"]
    if scale:
        steps = scaled(steps, raw["step_probe_ms"])
        setups = scaled(setups, raw["setup_probe_ms"])
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": per_unit(raw["completed"], sum(steps) / 1e3),
        "step_ms_p50": percentile(steps, 0.5),
        "step_ms_p90": tail_percentile(steps, 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fail_frac": per_unit(attempted - raw["completed"], attempted),
        "sim_latency_ms_p50": percentile(raw["sim_latency_ms"], 0.5),
        "sim_latency_ms_p90": tail_percentile(raw["sim_latency_ms"], 0.9),
    }


def per_layer(traced, plain, names):
    """Per-layer metrics of a traced run, every name in `names` present.

    A layer the workload does not use reads 0.  trace.overhead compares the
    traced run's work rate with the untraced run `plain` of the same seed,
    both at the reference host speed.
    """
    layers = {name: float(traced["layers"].get(name, 0.0)) for name in names}
    if "trace.overhead" in layers:
        untraced = end_to_end(plain)["work_per_s"]
        traced_rate = end_to_end(traced)["work_per_s"]
        layers["trace.overhead"] = 1.0 - per_unit(traced_rate, untraced)
    return layers


def violations(raw):
    """Every correctness violation of one run, as readable strings."""
    found = []
    for check, count in sorted(raw["checks"].items()):
        if count:
            found.append(f"{check}: {count}")
    if raw["completed"] != raw["attempted"]:
        found.append(
            f"{raw['attempted'] - raw['completed']} of {raw['attempted']} "
            f"units failed")
    for name, expected in sorted(raw.get("oracle_digests", {}).items()):
        got = raw["digests"].get(name)
        if got != expected:
            found.append(f"digest {name}: {got} != oracle {expected}")
    return found


def fingerprint_diff(a, b, ignore=()):
    """Fingerprint fields on which two results differ."""
    keys = (set(a) | set(b)) - set(ignore)
    return sorted(k for k in keys if a.get(k) != b.get(k))


def compare(base, new, bound, better, base_fp, new_fp, ignore=()):
    """Verdict on one metric of two sets of runs of one workload.

    base and new are lists of values.  Returns "not comparable on this
    host" when the fingerprints differ, else "pass" when the new median is
    no worse than the base median by more than bound (a share of the base
    median), "fail" when it is worse by more and every new run is worse
    than every base run, and "unresolved" otherwise (the spread overlaps).
    """
    if fingerprint_diff(base_fp, new_fp, ignore):
        return "not comparable on this host"
    b = statistics.median(base)
    n = statistics.median(new)
    worse = (n - b) / b if better == "lower" else (b - n) / b
    if worse <= bound:
        return "pass"
    if better == "lower":
        separated = min(new) > max(base)
    else:
        separated = max(new) < min(base)
    return "fail" if separated else "unresolved"


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def result_line(correct, attempted, failed, metrics, units):
    """The last line of run.py's stdout, checked for shape."""
    if not isinstance(attempted, int) or attempted < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(failed, int) or not 0 <= failed <= attempted:
        raise ValueError("failed must be a whole number in [0, attempted]")
    out = {}
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number")
        out[name] = {"value": value, "unit": units[name]}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": out})
