"""Unit tests for GlueFM entry points not covered by the integration
scenarios: init-job variants, end-job edges, context bookkeeping."""

import pytest

from repro.errors import ProtocolError
from repro.fm.context import ContextState
from repro.fm.policies.static import FullBuffer, StaticPartition
from tests.gluefm.conftest import GlueRig


def drive(rig, gen):
    proc = rig.sim.process(gen)
    return rig.sim.run_until_processed(proc, max_events=1_000_000)


class TestInitJob:
    def test_init_job_returns_env(self):
        rig = GlueRig(2)

        def scenario():
            ctx, env = yield from rig.glue[0].COMM_init_job(
                5, rank=0, rank_to_node={0: 0, 1: 1}, policy=FullBuffer())
            return ctx, env

        ctx, env = drive(rig, scenario())
        assert env["FM_JOB_ID"] == "5"
        assert env["FM_RANK"] == "0"
        assert "0:0" in env["FM_NODES"] and "1:1" in env["FM_NODES"]
        assert ctx.is_active
        assert rig.glue[0].context_of(5) is ctx

    def test_init_job_uninstalled_is_stored(self):
        rig = GlueRig(2)

        def scenario():
            ctx, _ = yield from rig.glue[0].COMM_init_job(
                5, 0, {0: 0, 1: 1}, FullBuffer(), install=False)
            return ctx

        ctx = drive(rig, scenario())
        assert ctx.state is ContextState.STORED
        assert rig.glue[0].firmware.installed_context(5) is None

    def test_duplicate_init_job_rejected(self):
        rig = GlueRig(2)

        def scenario():
            yield from rig.glue[0].COMM_init_job(5, 0, {0: 0, 1: 1}, FullBuffer())
            yield from rig.glue[0].COMM_init_job(5, 0, {0: 0, 1: 1}, FullBuffer())

        with pytest.raises(ProtocolError, match="already initialised"):
            drive(rig, scenario())

    def test_static_partition_jobs_coexist_installed(self):
        from repro.fm.config import FMConfig

        rig = GlueRig(2, config=FMConfig(num_processors=2, max_contexts=3))

        def scenario():
            for job in (1, 2, 3):
                yield from rig.glue[0].COMM_init_job(
                    job, 0, {0: 0, 1: 1}, StaticPartition())

        drive(rig, scenario())
        assert rig.glue[0].firmware.installed_jobs == [1, 2, 3]


class TestEndJob:
    def test_end_unknown_job_rejected(self):
        rig = GlueRig(2)

        def scenario():
            yield from rig.glue[0].COMM_end_job(77)

        with pytest.raises(ProtocolError, match="not initialised"):
            drive(rig, scenario())

    def test_end_stored_job_skips_firmware(self):
        rig = GlueRig(2)

        def scenario():
            yield from rig.glue[0].COMM_init_job(5, 0, {0: 0, 1: 1},
                                                 FullBuffer(), install=False)
            yield from rig.glue[0].COMM_end_job(5)

        drive(rig, scenario())
        with pytest.raises(ProtocolError):
            rig.glue[0].context_of(5)

    def test_context_of_unknown_rejected(self):
        rig = GlueRig(2)
        with pytest.raises(ProtocolError):
            rig.glue[0].context_of(1)

    def test_init_node_twice_rejected(self):
        rig = GlueRig(2)
        with pytest.raises(ProtocolError, match="twice"):
            rig.glue[0].COMM_init_node([0, 1])
