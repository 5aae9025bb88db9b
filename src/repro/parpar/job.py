"""Job descriptions and runtime state.

A :class:`JobSpec` is what the user hands the job representative: a name,
a process count, and the *workload* — a callable that, given the rank's
:class:`~repro.fm.harness.Endpoint`, returns the generator the simulated
process runs after ``FM_initialize`` completes.  The generator's return
value is kept as that rank's result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.errors import SchedulingError
from repro.fm.harness import Endpoint

Workload = Callable[[Endpoint], Generator]


#: Valid per-job failure policies (applied when a hosting node fail-stops).
FAILURE_POLICIES = ("kill", "requeue")


@dataclass(frozen=True)
class JobSpec:
    """What the user submits."""

    name: str
    num_procs: int
    workload: Workload
    #: What the masterd does with this job when a node hosting one of its
    #: ranks is evicted: ``"kill"`` retires it dead, ``"requeue"``
    #: restarts it from scratch on a fresh DHC allocation (falling back
    #: to kill if no capacity remains).
    on_failure: str = "kill"

    def __post_init__(self):
        if self.num_procs <= 0:
            raise SchedulingError(f"job {self.name!r}: num_procs must be positive")
        if self.on_failure not in FAILURE_POLICIES:
            raise SchedulingError(
                f"job {self.name!r}: on_failure must be one of "
                f"{FAILURE_POLICIES}, got {self.on_failure!r}")


class JobState(enum.Enum):
    SUBMITTED = "submitted"
    LOADING = "loading"       # nodeds are forking processes
    READY = "ready"           # all processes up, sync byte delivered
    FINISHED = "finished"
    KILLED = "killed"         # a hosting node fail-stopped; policy = kill
    REQUEUED = "requeued"     # restarted as a fresh incarnation elsewhere


@dataclass
class ParallelJob:
    """Masterd-side record of one running job."""

    job_id: int
    spec: JobSpec
    slot: int
    node_ids: tuple[int, ...]
    state: JobState = JobState.SUBMITTED
    submitted_at: float = 0.0
    ready_at: Optional[float] = None
    finished_at: Optional[float] = None
    finished_nodes: set = field(default_factory=set)
    results: dict[int, Any] = field(default_factory=dict)  # rank -> workload return
    endpoints: dict[int, Endpoint] = field(default_factory=dict)  # rank -> endpoint
    #: Set when a node eviction hit this job: the evicted node id.
    failed_node: Optional[int] = None
    #: Fresh incarnation's job id when the requeue policy restarted it.
    requeued_as: Optional[int] = None

    @property
    def rank_to_node(self) -> dict[int, int]:
        return {rank: node for rank, node in enumerate(self.node_ids)}

    @property
    def all_finished(self) -> bool:
        return len(self.finished_nodes) == self.spec.num_procs

    @property
    def is_finished(self) -> bool:
        return self.state is JobState.FINISHED

    def result_of(self, rank: int) -> Any:
        if rank not in self.results:
            raise SchedulingError(f"job {self.job_id}: no result for rank {rank} yet")
        return self.results[rank]
