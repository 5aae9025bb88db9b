"""Smoke tests that keep the example scripts working.

Each example's ``main()`` runs end-to-end; assertions are on the output
so examples cannot silently rot as the library evolves.
"""

import importlib
import sys

import pytest

sys.path.insert(0, "examples")


def run_example(name, capsys):
    module = importlib.import_module(name)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "full buffer" in out
        assert "0.0 MB/s" in out  # the 8-context static death

    def test_gang_scheduling_demo(self, capsys):
        out = run_example("gang_scheduling_demo", capsys)
        assert "All jobs finished." in out
        assert "Packets dropped anywhere: 0" in out
        assert "slot" in out

    def test_buffer_switch_comparison(self, capsys):
        out = run_example("buffer_switch_comparison", capsys)
        assert "full-copy" in out and "valid-only-copy" in out

    @pytest.mark.slow
    def test_flow_control_tour(self, capsys):
        out = run_example("flow_control_tour", capsys)
        assert "analytic model vs simulation" in out
