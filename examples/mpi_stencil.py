#!/usr/bin/env python
"""An MPI application on the gang-scheduled cluster.

A 1-D Jacobi-style stencil: each rank owns a block of cells, exchanges
halo rows with its neighbours every iteration (tagged sendrecv), and
every few iterations the ranks agree on the global residual with an
allreduce.  Two such jobs are gang-scheduled against each other on the
same nodes, so every buffer switch happens mid-computation — the paper's
machinery, exercised by exactly the kind of application it was built for.

Run:  python examples/mpi_stencil.py
"""

import numpy as np

from repro.mpi import Communicator
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.sim.rand import PCG64Stream

CELLS_PER_RANK = 512
ITERATIONS = 40
HALO_BYTES = 8 * 2            # two doubles of halo per edge
CHECK_EVERY = 10
COMPUTE_TIME = 400e-6         # simulated host time per Jacobi sweep


def stencil_workload(ep):
    """One rank of the Jacobi job."""
    comm = Communicator(ep)
    rng = PCG64Stream(ep.rank)  # the draws of np.random.default_rng(rank)
    block = np.array([rng.random() for _ in range(CELLS_PER_RANK)])
    left = comm.rank - 1 if comm.rank > 0 else None
    right = comm.rank + 1 if comm.rank < comm.size - 1 else None

    residuals = []
    for it in range(ITERATIONS):
        # Halo exchange with both neighbours (tag = iteration).
        left_halo = right_halo = None
        if right is not None:
            yield from comm.send(right, HALO_BYTES, tag=it, payload=block[-1])
        if left is not None:
            yield from comm.send(left, HALO_BYTES, tag=it, payload=block[0])
        if left is not None:
            msg = yield from comm.recv(left, tag=it)
            left_halo = msg.payload
        if right is not None:
            msg = yield from comm.recv(right, tag=it)
            right_halo = msg.payload

        padded = np.concatenate((
            [left_halo if left_halo is not None else block[0]],
            block,
            [right_halo if right_halo is not None else block[-1]],
        ))
        new_block = 0.5 * padded[1:-1] + 0.25 * (padded[:-2] + padded[2:])
        local_residual = float(np.abs(new_block - block).sum())
        block = new_block
        # The sweep itself costs host time on the simulated Pentium-Pro.
        yield ep.library.host.cpu.busy(COMPUTE_TIME)

        if (it + 1) % CHECK_EVERY == 0:
            total = yield from comm.allreduce(local_residual, nbytes=8)
            residuals.append(total)

    return {"rank": comm.rank, "residuals": residuals,
            "checksum": float(block.sum())}


def main():
    cluster = ParParCluster(ClusterConfig(
        num_nodes=4, time_slots=2, quantum=0.006, buffer_switching=True,
    ))
    jobs = [cluster.submit(JobSpec(f"jacobi-{i}", 4, stencil_workload))
            for i in range(2)]
    print("Two 4-rank Jacobi jobs gang-scheduled on 4 nodes "
          f"(quantum {cluster.config.quantum * 1000:.0f} ms)")
    cluster.run_until_finished(jobs)

    for job in jobs:
        res = job.result_of(0)["residuals"]
        trend = " -> ".join(f"{r:.2f}" for r in res)
        print(f"  job {job.job_id}: global residual {trend}")
        checks = [job.result_of(r)["checksum"] for r in range(4)]
        print(f"           per-rank checksums {['%.2f' % c for c in checks]}")
        assert res == sorted(res, reverse=True), "Jacobi must converge"

    print(f"\nContext switches: {cluster.masterd.switches_completed}, "
          f"packets dropped: {cluster.total_dropped()}")
    halt, switch, release = cluster.recorder.mean_stage_seconds()
    print(f"Mean buffer-switch stage: {switch * 1000:.2f} ms "
          f"(halt {halt * 1e6:.0f} us, release {release * 1e6:.0f} us)")


if __name__ == "__main__":
    main()
