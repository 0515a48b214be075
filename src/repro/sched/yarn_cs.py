"""YARN capacity scheduler baseline (FIFO gang scheduling).

The comparison point of §5.2: Apache YARN's capacity scheduler as used in
Microsoft Philly.  Strict FIFO — the head-of-queue job waits until its
*entire* gang (``requested_gpus`` of ``requested_type``) is free, holding
everything behind it; allocations are fixed for the job's lifetime.  Long
queueing under bursty arrivals is exactly what the elasticity of EasyScale
removes.
"""

from __future__ import annotations

from typing import List

from repro.sched.simulator import ClusterSimulator, JobRuntime, SchedulingPolicy


class YarnCapacityScheduler(SchedulingPolicy):
    """Strict-FIFO gang scheduling with same-type allocation."""

    name = "yarn-cs"
    # admission depends only on the queue and the free pool; a pass that
    # admitted nothing (no events) changes nothing and stays blocked until
    # the free pool or the queue changes
    fixpoint_reschedule = True

    def __init__(self) -> None:
        self._queue: List[JobRuntime] = []

    def on_job_arrival(self, sim: ClusterSimulator, runtime: JobRuntime) -> None:
        self._queue.append(runtime)

    def reschedule(self, sim: ClusterSimulator, now: float) -> None:
        # FIFO: admit from the head while the head's full gang fits.
        while self._queue:
            head = self._queue[0]
            if head.status == "done":
                self._queue.pop(0)
                continue
            gtype = head.job.requested_type
            free = sim.cluster.free_count(gtype)
            if free < head.job.requested_gpus:
                return  # head blocks the queue: no backfill
            self._queue.pop(0)
            sim.grant(head, gtype, head.job.requested_gpus)
            # gang jobs don't pay the elastic restart cost at admission
            head.reconfig_until = now
            head.rate = head.job.requested_rate()

    def on_preempt(self, sim: ClusterSimulator, runtime: JobRuntime, now: float) -> None:
        """A gang job cannot run on a partial gang: release the remnant and
        requeue at the head (it keeps its FIFO seniority), waiting for the
        full gang to be free again."""
        if runtime.total_owned >= runtime.job.requested_gpus:
            return  # crash without GPU loss: restart cost already charged
        sim.release_all(runtime)
        runtime.status = "pending"
        runtime.rate = 0.0
        if runtime not in self._queue:
            self._queue.insert(0, runtime)
