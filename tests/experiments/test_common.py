"""Tests for shared experiment plumbing: point sizing, seeding, fan-out."""

import os

import pytest

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.experiments.common import (messages_for_size, packets_for_messages,
                                      point_seed, run_points)


class TestMessagesForSize:
    def test_small_messages_hit_the_target(self):
        config = FMConfig()
        messages = messages_for_size(config, 256, target_packets=1500)
        assert messages == 1500  # one packet per message

    def test_floor_of_20_messages(self):
        config = FMConfig()
        # 64 KiB messages at ~1.5 KiB payload: >40 packets each, so the
        # target of 100 packets would allow only ~2 messages — the floor
        # kicks in.
        messages = messages_for_size(config, 65536, target_packets=100)
        assert messages == 20

    def test_packets_for_messages_reports_the_overshoot(self):
        """The result record must carry the *actual* packet volume, which
        exceeds the nominal target whenever the 20-message floor binds."""
        config = FMConfig()
        target = 100
        messages = messages_for_size(config, 65536, target)
        moved = packets_for_messages(config, 65536, messages)
        assert moved == messages * config.packets_for(65536)
        assert moved > target   # silently flooring used to hide this

    def test_packets_for_messages_matches_target_when_unfloored(self):
        config = FMConfig()
        messages = messages_for_size(config, 256, target_packets=1500)
        assert packets_for_messages(config, 256, messages) == 1500

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ConfigError):
            messages_for_size(FMConfig(), 1024, target_packets=0)


class TestPointSeed:
    def test_depends_on_label(self):
        assert point_seed(0, "a") != point_seed(0, "b")

    def test_depends_on_root(self):
        assert point_seed(0, "a") != point_seed(1, "a")

    def test_stable(self):
        assert point_seed(7, "figure6:jobs=2:size=384") == \
            point_seed(7, "figure6:jobs=2:size=384")


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


class TestRunPoints:
    def test_serial_matches_input_order(self):
        assert run_points(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        items = list(range(10))
        assert run_points(_square, items, workers=4) == \
            run_points(_square, items, workers=1)

    def test_single_item_runs_in_a_one_worker_pool(self):
        assert run_points(_square, [5], workers=8) == [25]

    def test_pool_is_real_on_a_one_cpu_host(self, monkeypatch):
        """The serial-vs-pool gates must cross a process boundary even
        where ``os.cpu_count()`` is 1 and the sweep has one point."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_points(_pid, [0], workers=2) != [os.getpid()]
        assert run_points(_pid, [0], workers=1) == [os.getpid()]

    def test_workers_none_is_serial(self):
        assert run_points(_square, [2, 3], workers=None) == [4, 9]
