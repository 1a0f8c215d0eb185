"""tftkit benchmark: one workload as a closed loop with one caller.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: transform_large, polymul_small, cli_mul, selftest (see
README.md in this directory for why each was chosen).  Each request
starts only after the previous one returned.

--trace 0 measures the end-to-end metrics with tracing off.
--trace 1 serves the same requests twice, untraced and then traced,
          and reports the per-layer metrics computed from the spans.

Every time is scaled to a reference interpreter speed by calibration
blocks timed around it (see calibration.py); raw times are printed
beside the scaled ones and kept in the result file.

Human-readable lines, the environment and sample counts come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the environment
(and, when traced, the spans) is written under perfbench/out/.
Exit codes: 0 result printed, 2 program or usage error, 3 the
operation counts were not input-independent, so ns per op is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_BLOCK_S, Calibration, normalized

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
SETUP_RUNS = 7


def load_program():
    """Import tftkit from this checkout's src/, or exit with code 2."""
    init = SRC / "tftkit" / "__init__.py"
    if not init.is_file():
        print(f"error: no tftkit sources at {init.parent}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import tftkit

    if Path(tftkit.__file__).resolve() != init.resolve():
        print(f"error: imported tftkit from {tftkit.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)
    return tftkit


def environment() -> dict:
    import numpy

    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caches": caches,
    }


def closed_loop(workload, seconds, min_requests=0, tracer=None, count=None, calibration=None):
    """Serve whole passes over the workload's mix, one request at a time,
    until seconds have passed and min_requests were served (or exactly
    count requests when given)."""
    outcomes = []
    start = perf_counter()
    while True:
        for _ in range(workload.cycle):
            block = calibration.due() if calibration is not None else None
            i = len(outcomes)
            if tracer is None:
                outcomes.append(workload.request(i))
            else:
                tracer.open_request(i)
                try:
                    outcomes.append(workload.request(i, tracer))
                finally:
                    tracer.close_request()
            outcomes[-1].block = block
        if count is not None:
            if len(outcomes) >= count:
                break
        elif perf_counter() - start >= seconds and len(outcomes) >= min_requests:
            break
    if calibration is not None:
        calibration.run()
        for o in outcomes:
            o.scale = calibration.scale(o.block)
    return outcomes


def setup_times(workload) -> list[tuple[float, float]]:
    """(setup_s, scale) of fresh interpreters, after one unmeasured warm-up."""
    from workloads import child_env

    command = [sys.executable, str(HERE / "setup_probe.py"), *workload.probe_args]
    times = []
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run(command, capture_output=True, text=True, env=child_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if k:
            probe = json.loads(proc.stdout.splitlines()[-1])
            times.append((probe["setup_s"], probe["scale"]))
    return times


def summarize(workload, outcomes, scaled=True) -> tuple[dict, dict]:
    """End-to-end metrics of the closed loop (setup_s and peak_aux_bytes
    are added by the caller) and their sample counts; times are scaled
    to the reference speed unless scaled is false."""
    good = [o for o in outcomes if o.ok]
    seconds = {id(o): o.seconds * (o.scale if scaled else 1.0) for o in outcomes}
    busy = sum(seconds.values())
    # a failed request misses every latency limit
    latencies = sorted(seconds[id(o)] * 1e3 if o.ok else math.inf for o in outcomes)
    p90 = latencies[math.ceil(0.9 * len(latencies)) - 1]  # nearest rank
    ops = sum(workload.ops(o.shape) for o in good)
    metrics = {
        "throughput_rps": (len(good) / busy if busy else 0.0, "1/s"),
        "latency_ms.p50": (statistics.median(latencies), "ms"),
        "latency_ms.p90": (p90, "ms"),
        # completed request time over the ring operations those requests did
        "ns_per_op": (sum(seconds[id(o)] for o in good) * 1e9 / ops if ops else math.inf, "ns"),
        "ok_ratio": (len(good) / len(outcomes), "ratio"),
    }
    samples = {
        "throughput_rps": len(outcomes),
        "latency_ms.p50": len(latencies),
        "latency_ms.p90": len(latencies),
        "ns_per_op": len(good),
        "ok_ratio": len(outcomes),
    }
    return metrics, samples


def measure(workload, seconds, calibration):
    setups = setup_times(workload)
    workload.warm_up()
    outcomes = closed_loop(workload, seconds, MIN_REQUESTS, calibration=calibration)
    workload.count(o.shape for o in outcomes)
    aux, aux_samples = workload.peak_aux()
    results = []
    for scaled in (True, False):
        metrics, samples = summarize(workload, outcomes, scaled)
        metrics["setup_s"] = (statistics.median(t * (k if scaled else 1.0) for t, k in setups), "s")
        metrics["peak_aux_bytes"] = (aux, "B")
        results.append(metrics)
    samples["setup_s"] = len(setups)
    samples["peak_aux_bytes"] = aux_samples
    return outcomes, results[0], results[1], samples, {}


def trace(workload, seconds, calibration):
    from spans import Tracer, self_times, span_tree

    workload.warm_up()
    plain = closed_loop(workload, seconds / 2, calibration=calibration)
    tracer = Tracer()
    with tracer:
        traced = closed_loop(workload, 0, tracer=tracer, count=len(plain), calibration=calibration)
    selfs = self_times(tracer.spans)
    workload.count(workload.reference_shapes())
    raw = layer_metrics(workload, tracer.spans, selfs, plain, traced)
    samples = {name: len(traced) for name in raw}
    extra = {
        "installed": tracer.installed,
        "request_tree": span_tree(tracer.spans, selfs, 0),
        "spans": [span.row() for span in tracer.spans],
    }
    return plain + traced, normalized(raw, calibration.factor), raw, samples, extra


def layer_metrics(workload, spans, selfs, plain, traced) -> dict:
    from spans import KERNELS
    from workloads import ROADMAP_LENGTHS

    n = len(traced)
    own = defaultdict(float)  # summed self time per span name
    cost = defaultdict(float)  # summed time covered of the parent
    calls = defaultdict(int)
    items = defaultdict(int)
    for span in spans:
        own[span.name] += selfs[span.sid]
        cost[span.name] += span.cost
        calls[span.name] += 1
        items[span.name] += span.count
    ms = 1e3 / n
    m = {
        "tft.tft_in_place.self_ms": (own["tft.tft_in_place"] * ms, "ms"),
        "itft.itft_in_place.self_ms": (own["itft.itft_in_place"] * ms, "ms"),
    }
    for kind, name, prefix in zip(("forward", "inverse"), KERNELS, ("tft", "itft")):
        for ell in ROADMAP_LENGTHS:
            durations = [s.cost for s in spans if s.name == name and s.attrs == {
                "ell": ell, "ring": "PrimeField", "buffer": "list"}]
            value = 0.0  # the workload ran no plain kernel of this length
            if durations:
                value = statistics.median(durations) * 1e9 / workload.kernel_counters(kind, ell).total
            m[f"{prefix}.ns_per_op.{ell}"] = (value, "ns")
    ref = workload.reference_ops()
    for cls in ("add_sub", "mul_root", "mul_pow2", "mul_other"):
        m[f"ring.ops.{cls}"] = (getattr(ref, cls), "count")
    single = ("twiddle.twiddle_forward", "twiddle.twiddle_inverse")
    twiddle_s = cost["twiddle.pair_stream"] + sum(cost[s] for s in single)
    kernel_s = cost["tft.tft_in_place"] + cost["itft.itft_in_place"]
    m.update({
        "twiddle.pair_stream.yields": (items["twiddle.pair_stream"] / n, "count"),
        "twiddle.pair_stream.ms": (cost["twiddle.pair_stream"] * ms, "ms"),
        "twiddle.single.calls": (sum(calls[s] for s in single) / n, "count"),
        "twiddle.single.ms": (sum(cost[s] for s in single) * ms, "ms"),
        "twiddle.share": (twiddle_s / kernel_s if kernel_s else 0.0, "ratio"),
        "tft.make_plan.calls": (calls["tft.make_plan"] / n, "count"),
        "tft.make_plan.ms": (cost["tft.make_plan"] * ms, "ms"),
        "polymul.self_ms": (own["polymul.tft_polymul"] * ms, "ms"),
        "cli.import_s": (_median([s.cost for s in spans if s.name == "cli.import"]), "s"),
        "cli.main.self_ms": (own["cli.main"] * ms, "ms"),
        "ring.from_modulus.ms": (cost["ring.from_modulus"] * ms, "ms"),
        "instrumentation.measure_transform.ms": (cost["instrumentation.measure_transform"] * ms, "ms"),
        "instrumentation.bound_check.ms": (cost["instrumentation.bound_check"] * ms, "ms"),
        "instrumentation.audit_kernel.ms": (sum(
            s.cost for s in spans
            if s.name in KERNELS and s.attrs["buffer"] == "AuditBuffer") * ms, "ms"),
        "instrumentation.counting_slowdown": (counting_slowdown(spans), "ratio"),
        "oracle.naive_tft.calls": (calls["oracle.naive_tft"] / n, "count"),
        "oracle.naive_tft.ms": (cost["oracle.naive_tft"] * ms, "ms"),
        "trace.overhead_ratio": (_busy(traced) / _busy(plain), "ratio"),
    })
    return m


def counting_slowdown(spans) -> float:
    """Time of kernels on CountingField over the same kernels on the
    field itself, over the (kernel, length) pairs the workload ran both
    ways; 0 when it never ran both."""
    from spans import KERNELS

    runs = defaultdict(list)
    for s in spans:
        if s.name in KERNELS and s.attrs["buffer"] == "list":
            runs[(s.name, s.attrs["ell"], s.attrs["ring"])].append(s.cost)
    counting = plain = 0.0
    for (name, ell, ring), times in runs.items():
        base = runs.get((name, ell, "PrimeField"))
        if ring == "CountingField" and base:
            counting += statistics.fmean(times)
            plain += statistics.fmean(base)
    return counting / plain if plain else 0.0


def _busy(outcomes) -> float:
    return sum(o.seconds * o.scale for o in outcomes)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from spans import TraceError
    from workloads import WORKLOADS, CountMismatch

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    env = environment()
    calibration = Calibration()
    try:
        run = trace if args.trace else measure
        outcomes, metrics, raw, samples, extra = run(workload, args.seconds, calibration)
    except CountMismatch as exc:
        print(f"error: refusing to report ns_per_op, counts are not input-independent: {exc}",
              file=sys.stderr)
        return 3
    except TraceError as exc:
        print(f"error: inconsistent trace: {exc}", file=sys.stderr)
        return 2
    factor = calibration.factor
    failed = sum(not o.ok for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": _finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "env": env, "samples": samples,
                                "calibration_s": calibration.samples, "speed_factor": factor,
                                "requests": [[o.shape, o.seconds, o.scale, o.block, o.ok]
                                             for o in outcomes],
                                "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                                **result, **extra}))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"speed: median calibration block {statistics.median(calibration.samples) * 1e3:.3f} ms "
          f"over {len(calibration.samples)} blocks, run factor {factor:.4f}; reference "
          f"{REFERENCE_BLOCK_S * 1e3:g} ms")
    print(f"requests: attempted={len(outcomes)} failed={failed} "
          f"failed_ratio={failed / len(outcomes):.4f}")
    print(f"  {'metric':40s} {'value':>14s} {'unit':6s} {'raw':>14s}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {raw[name][0]:>14.6g} (n={samples[name]})")
    print(f"result file: {path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
