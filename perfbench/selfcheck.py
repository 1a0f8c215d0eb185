"""Self-check of the benchmark itself, at tiny sizes.

Usage: python3 perfbench/selfcheck.py [--seed N]

For each workload:
- clean requests pass every correctness check (ok_ratio 1);
- a traced pass records kernel spans whose children fit inside their
  parents, and the per-layer metrics can be computed from them;
- with one residue of every result flipped, every request counts as
  failed (ok_ratio 0) instead of passing.
It also checks that operation counts which depend on the input make
the benchmark refuse to report ns per op.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import run

REQUESTS = 8


def tiny_workloads(seed):
    from patching import flip_kernel, flip_product, rebound
    from workloads import CliMul, PolymulSmall, Selftest, TransformLarge

    cli = CliMul(seed, max_factor=8, aux_factor=4)

    @contextmanager
    def flipped_cli():
        saved = cli.command
        cli.command = [sys.executable, str(run.HERE / "cli_child.py"), "--flip", "mul"]
        try:
            yield
        finally:
            cli.command = saved

    return [
        (TransformLarge(seed, lengths=(1, 2, 5, 8, 13), naive_max=8, aux_max=13),
         lambda: rebound("tftkit", "tft_in_place", flip_kernel)),
        (PolymulSmall(seed, max_factor=6, pool=16),
         lambda: rebound("tftkit", "tft_polymul", flip_product)),
        (cli, flipped_cli),
        (Selftest(seed, max_length=6),
         lambda: rebound("tftkit.cli", "tft_in_place", flip_kernel)),
    ]


def check_workload(workload, fault) -> list[str]:
    from spans import KERNELS, Tracer, self_times

    problems = []
    workload.warm_up()
    clean = run.closed_loop(workload, 0, count=REQUESTS)
    metrics, _ = run.summarize(workload, clean)
    if metrics["ok_ratio"][0] != 1.0:
        problems.append(f"clean requests failed: ok_ratio {metrics['ok_ratio'][0]}")
    aux, _ = workload.peak_aux()
    if aux <= 0:
        problems.append(f"peak_aux_bytes is {aux}")

    tracer = Tracer()
    with tracer:
        traced = run.closed_loop(workload, 0, tracer=tracer, count=workload.cycle)
    selfs = self_times(tracer.spans)
    if not any(span.name in KERNELS for span in tracer.spans):
        problems.append("the traced pass recorded no kernel span")
    run.layer_metrics(workload, tracer.spans, selfs, clean[: len(traced)], traced)

    with fault():
        faulty = run.closed_loop(workload, 0, count=REQUESTS)
    metrics, _ = run.summarize(workload, faulty)
    print(f"{workload.name}: clean ok_ratio 1, flipped failed_ratio "
          f"{1 - metrics['ok_ratio'][0]:.2f} over {len(faulty)} requests")
    if any(o.ok for o in faulty) or metrics["ok_ratio"][0] != 0.0:
        problems.append("a request with a flipped residue was counted as a pass")
    return problems


def check_refusal(seed) -> list[str]:
    """Counts that depend on the input must raise CountMismatch."""
    from patching import rebound
    from workloads import CountMismatch, TransformLarge

    def data_dependent(kernel):
        def run_kernel(plan, buffer, ring=None):
            kernel(plan, buffer, ring)
            if ring is not None:
                for _ in range(buffer[0] % 1000):
                    ring.add(0, 0)

        return run_kernel

    workload = TransformLarge(seed, lengths=(5, 8, 13))
    with rebound("tftkit", "tft_in_place", data_dependent):
        try:
            workload.count(workload.lengths)
        except CountMismatch as exc:
            print(f"refusal: input-dependent counts refused ({exc})")
            return []
    return ["input-dependent operation counts were accepted"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.load_program()
    problems = []
    for workload, fault in tiny_workloads(args.seed):
        problems += [f"{workload.name}: {p}" for p in check_workload(workload, fault)]
    problems += check_refusal(args.seed)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
