"""Tests for the MPI-style layer over FM."""

import operator

import pytest

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer
from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator
from repro.sim import Simulator


def run_ranks(num_ranks, body, **cfg):
    """Run `body(comm)` on every rank of a fresh job; returns results."""
    sim = Simulator()
    defaults = dict(num_processors=max(num_ranks, 2))
    defaults.update(cfg)
    net = FMNetwork(sim, num_ranks, config=FMConfig(**defaults),
                    strict_no_loss=True)
    eps = net.create_job(1, list(range(num_ranks)), FullBuffer())
    comms = [Communicator(ep) for ep in eps]
    results = {}

    def runner(comm):
        results[comm.rank] = yield from body(comm)

    procs = [sim.process(runner(comm)) for comm in comms]
    for p in procs:
        sim.run_until_processed(p, max_events=100_000_000)
    assert net.total_dropped() == 0
    return results, sim


class TestPointToPoint:
    def test_tagged_send_recv(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send(1, 100, tag=7, payload="hello")
                return None
            msg = yield from comm.recv(source=0, tag=7)
            return (msg.tag, msg.payload, msg.nbytes)

        results, _ = run_ranks(2, body)
        assert results[1] == (7, "hello", 100)

    def test_out_of_order_tags_buffer_as_unexpected(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send(1, 100, tag=1, payload="first")
                yield from comm.send(1, 100, tag=2, payload="second")
                return None
            # Receive tag 2 first: tag 1 must wait in the unexpected queue.
            second = yield from comm.recv(source=0, tag=2)
            buffered = comm.unexpected_messages
            first = yield from comm.recv(source=0, tag=1)
            return (second.payload, first.payload, buffered)

        results, _ = run_ranks(2, body)
        assert results[1] == ("second", "first", 1)

    def test_wildcards(self):
        def body(comm):
            if comm.rank != 0:
                yield from comm.send(0, 50, tag=comm.rank, payload=comm.rank)
                return None
            got = []
            for _ in range(comm.size - 1):
                msg = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                got.append(msg.payload)
            return sorted(got)

        results, _ = run_ranks(4, body)
        assert results[0] == [1, 2, 3]

    def test_per_source_order_preserved(self):
        def body(comm):
            if comm.rank == 0:
                for i in range(10):
                    yield from comm.send(1, 64, tag=3, payload=i)
                return None
            got = []
            for _ in range(10):
                msg = yield from comm.recv(0, 3)
                got.append(msg.payload)
            return got

        results, _ = run_ranks(2, body)
        assert results[1] == list(range(10))

    def test_reserved_tag_space_rejected(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send(1, 10, tag=1 << 21)
            return None

        with pytest.raises(ConfigError, match="tags"):
            run_ranks(2, body)

    def test_sendrecv_exchange(self):
        def body(comm):
            peer = 1 - comm.rank
            msg = yield from comm.sendrecv(peer, peer, 200, tag=5,
                                           payload=f"from{comm.rank}")
            return msg.payload

        results, _ = run_ranks(2, body)
        assert results == {0: "from1", 1: "from0"}


class TestCollectives:
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8])
    def test_barrier_synchronizes(self, p):
        def body(comm):
            # Stagger entry; nobody may leave before the last entry.
            yield comm.library.sim.timeout(0.001 * comm.rank)
            entered = comm.library.sim.now
            yield from comm.barrier()
            left = comm.library.sim.now
            return (entered, left)

        results, _ = run_ranks(p, body)
        last_entry = max(entered for entered, _ in results.values())
        assert all(left >= last_entry for _, left in results.values())

    @pytest.mark.parametrize("p,root", [(2, 0), (4, 2), (5, 1), (8, 7)])
    def test_bcast_delivers_roots_value(self, p, root):
        def body(comm):
            value = "payload" if comm.rank == root else None
            result = yield from comm.bcast(value, root=root)
            return result

        results, _ = run_ranks(p, body)
        assert all(v == "payload" for v in results.values())

    @pytest.mark.parametrize("p,root", [(2, 1), (4, 0), (6, 3), (8, 0)])
    def test_reduce_sums(self, p, root):
        def body(comm):
            result = yield from comm.reduce(comm.rank + 1, root=root)
            return result

        results, _ = run_ranks(p, body)
        expected = sum(range(1, p + 1))
        assert results[root] == expected
        assert all(v is None for r, v in results.items() if r != root)

    @pytest.mark.parametrize("p", [2, 4, 5, 8])
    def test_allreduce_max(self, p):
        def body(comm):
            result = yield from comm.allreduce(comm.rank * 10, op=max)
            return result

        results, _ = run_ranks(p, body)
        assert all(v == (p - 1) * 10 for v in results.values())

    def test_gather(self):
        def body(comm):
            result = yield from comm.gather(f"r{comm.rank}", root=0)
            return result

        results, _ = run_ranks(4, body)
        assert results[0] == ["r0", "r1", "r2", "r3"]
        assert results[1] is None

    def test_scatter(self):
        def body(comm):
            values = [f"v{r}" for r in range(comm.size)] if comm.rank == 1 else None
            result = yield from comm.scatter(values, root=1)
            return result

        results, _ = run_ranks(4, body)
        assert results == {0: "v0", 1: "v1", 2: "v2", 3: "v3"}

    def test_alltoall(self):
        def body(comm):
            outgoing = [f"{comm.rank}->{r}" for r in range(comm.size)]
            result = yield from comm.alltoall(outgoing)
            return result

        results, _ = run_ranks(3, body)
        for r, incoming in results.items():
            assert incoming == [f"{s}->{r}" for s in range(3)]

    def test_back_to_back_collectives_do_not_cross(self):
        def body(comm):
            a = yield from comm.allreduce(1)
            yield from comm.barrier()
            b = yield from comm.allreduce(comm.rank)
            return (a, b)

        results, _ = run_ranks(4, body)
        assert all(v == (4, 6) for v in results.values())

    def test_invalid_root_rejected(self):
        def body(comm):
            yield from comm.bcast(1, root=9)

        with pytest.raises(ConfigError, match="root"):
            run_ranks(2, body)


class TestBinomialTreeEfficiency:
    def test_bcast_scales_logarithmically(self):
        """Tree bcast of a large message: time grows ~log p, not ~p."""
        def timed(p):
            def body(comm):
                t0 = comm.library.sim.now
                yield from comm.bcast("x" if comm.rank == 0 else None,
                                      root=0, nbytes=30_000)
                return comm.library.sim.now - t0

            results, _ = run_ranks(p, body)
            return max(results.values())

        t2, t8 = timed(2), timed(8)
        # Flat fan-out would cost ~7x; the tree costs ~3 rounds.
        assert t8 < 4.5 * t2
