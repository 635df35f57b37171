"""Time one set-up in a fresh interpreter and print it as JSON.

Set-up is ``import repro``, ``ensure_providers()``, ``kernel.activate()``
and one untimed warm-up request of the workload's shape.  ``run.py``
starts this script a few times per run and reports the median together
with its own set-up.  A warm-queue probe reads the cache its parent
warmed under ``--workdir``.

    python3 perfbench/setup_probe.py --workload grid-congested --seed 1 \\
        --workdir .perfbench_work/<dir>
"""

from __future__ import annotations

import argparse
import contextlib
import json
from pathlib import Path
from time import perf_counter

import checkout


def set_up(name: str, seed: int, workdir, *, traced: bool = False,
           prepare: bool = False, tracer=None):
    """``(workload, seconds, warming)``: the timed set-up sequence.
    ``prepare`` runs the workload's untimed preparation, which is
    excluded, under ``tracer`` when one is given; ``warming`` holds the
    gate problems of each batch it ran."""
    start = perf_counter()
    import workloads

    workloads.activate()
    workload = workloads.WORKLOADS[name](seed, workdir, traced=traced)
    warming, excluded = [], 0.0
    if prepare:
        begin = perf_counter()
        with tracer or contextlib.nullcontext():
            warming = workload.prepare(tracer)
        excluded = perf_counter() - begin
    workload.warm_up()
    return workload, perf_counter() - start - excluded, warming


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    checkout.add_source_path()
    _, seconds, _ = set_up(args.workload, args.seed, args.workdir)
    print(json.dumps({"setup_s": seconds}))


if __name__ == "__main__":
    main()
