#!/usr/bin/env python
"""Gang scheduling on the full ParPar cluster.

Boots a complete simulated ParPar system — masterd, one noded per node,
glueFM, Myrinet fabric, control Ethernet — submits three parallel jobs of
different sizes through the jobrep, shows the DHC placements in the gang
matrix, lets the round-robin scheduler run them to completion with
buffer-switching context switches, and prints the per-switch stage costs.

Run:  python examples/gang_scheduling_demo.py
"""

from repro.metrics.counters import mean_stage_seconds
from repro.metrics.occupancy import summarize_occupancy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.workloads.alltoall import alltoall_benchmark
from repro.workloads.bandwidth import bandwidth_benchmark
from repro.workloads.synthetic import ring_benchmark


def main():
    cluster = ParParCluster(ClusterConfig(
        num_nodes=8, time_slots=3, quantum=0.008,
        buffer_switching=True,
    ))

    jobs = [
        cluster.submit(JobSpec("alltoall-8", 8, alltoall_benchmark(60, 2000))),
        cluster.submit(JobSpec("ring-4", 4, ring_benchmark(400, 1500))),
        cluster.submit(JobSpec("bandwidth-2", 2, bandwidth_benchmark(600, 1400))),
    ]

    print("Gang matrix after loading (DHC buddy placement):")
    print(cluster.matrix.render())
    print()

    cluster.run_until_finished(jobs)

    print("All jobs finished.")
    for job in jobs:
        span = job.finished_at - job.submitted_at
        print(f"  job {job.job_id} ({job.spec.name}): slot {job.slot}, "
              f"nodes {job.node_ids}, wall {span * 1000:.1f} ms")
    bw = jobs[2].result_of(0)
    print(f"  bandwidth-2 measured {bw.mbps:.1f} MB/s across its time slices")
    print()

    print(f"Context switches completed: {cluster.masterd.switches_completed}")
    halt, switch, release = mean_stage_seconds(cluster.recorder.records)
    print(f"Mean stage costs: halt {halt * 1e6:.0f} us, "
          f"buffer switch {switch * 1e3:.2f} ms, release {release * 1e6:.0f} us")
    occupancy = summarize_occupancy(cluster.recorder.records)
    print(f"Mean buffer occupancy at switch: send {occupancy.mean_send:.1f} "
          f"pkts, recv {occupancy.mean_recv:.1f} pkts")
    print(f"Packets dropped anywhere: {cluster.total_dropped()}")


if __name__ == "__main__":
    main()
