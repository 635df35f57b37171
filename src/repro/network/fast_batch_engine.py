"""Stacked batch engine: a whole scenario sweep as one array program.

:class:`FastBatchEngine` takes many independent jobs -- each a
``(network, policy, requests, horizon)`` quadruple with Model 1
semantics -- and runs them *together* through the same tick loop that
:class:`~repro.network.fast_engine.FastEngine` runs as a stack of one
(:func:`~repro.network.fast_engine._run_stack`; its module docstring
describes the padding, per-job clocks and programs).  Every per-packet
array grows a batch dimension (one scenario id per row), nodes get
per-scenario id offsets so no contention group ever mixes scenarios,
and each global tick resolves the decisions of *all* scenarios in one
grouped pass per decision program.  A sweep of hundreds of small grids
then costs per step what a single scenario costs -- numpy call overhead
is paid once per tick and program, not once per tick per scenario.

Every Model 1 policy the fast engine runs can join a stack.  Greedy
jobs of any priority mix, plan replays, and native vector policies that
declare a ``batch_program`` label merge into one program each; scalar
policies (lifted by the batched adapter) and the other vector policies
run as per-job programs on a job-local view, so they ride the shared
clock without amortizing their own per-tick calls.  The stacking wins
when many small scenarios with merging policies share the clock; one
huge grid gains nothing (there is nothing to amortize).

Every result is bit-identical to the per-scenario engines' -- identical
``status`` maps, identical counters, identical step accounting -- which
is what lets ``run_batch`` stack scenarios freely without perturbing the
result cache (fuzz-enforced by ``tests/test_differential.py``).
"""

from __future__ import annotations

from repro.network.fast_engine import FastEngine, _run_stack
from repro.util.errors import ValidationError


class FastBatchEngine:
    """Run many Model 1 jobs as one stacked array program.

    ``jobs`` is a sequence of ``(network, policy, requests, horizon)``
    quadruples.  Construction raises
    :class:`~repro.util.errors.ValidationError` when any job's policy
    cannot run on the array engines (see :meth:`unsupported_reason`);
    callers wanting graceful fallback pre-filter with :meth:`supports` --
    exactly the contract :class:`~repro.network.fast_engine.FastEngine`
    has with :func:`~repro.network.engine.make_engine`.
    """

    def __init__(self, jobs):
        jobs = [tuple(job) for job in jobs]
        for i, (network, policy, requests, horizon) in enumerate(jobs):
            reason = self.unsupported_reason(policy)
            if reason is not None:
                raise ValidationError(
                    f"job {i} ({type(policy).__name__}) cannot join a "
                    f"stacked batch: {reason}"
                )
        self.jobs = jobs

    @classmethod
    def unsupported_reason(cls, policy) -> str | None:
        """Why ``policy`` cannot join a stacked batch (None when it can):
        exactly what :meth:`FastEngine.supports` rejects, plus Model 2
        node semantics."""
        if getattr(policy, "node_model", 1) == 2:
            return "Model 2 node semantics run on the dedicated Model 2 engines"
        if getattr(policy, "vectorize", True) is False:
            return "policy sets vectorize=False (pinned to the reference engine)"
        if not FastEngine.supports(policy):
            return ("policy has no fast-engine lift (needs decide_vector, "
                    "a fast_priority, a scalar decide, or a PlanPolicy)")
        return None

    @classmethod
    def supports(cls, policy) -> bool:
        """True when ``policy`` can join a stacked batch execution."""
        return cls.unsupported_reason(policy) is None

    def run_many(self) -> list:
        """Execute every job; one :class:`SimulationResult` per job, in
        job order, each bit-identical to a per-scenario run."""
        return _run_stack(self.jobs, "batch")
