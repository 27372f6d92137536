"""`bench/curves.py` on one cell: it runs, and it catches a wrong count."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

CURVES = Path(__file__).resolve().parent.parent / "bench" / "curves.py"


def _curves():
    spec = importlib.util.spec_from_file_location("bench_curves", CURVES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cell_runs_in_under_two_seconds_and_checks_its_counts(monkeypatch):
    curves = _curves()
    started = time.perf_counter()
    table = curves.measure_diagram(2, 2, repeats=3)
    search = curves.measure_search(2, 2, curves.inputs.CONCURRENT, curves.inputs.TWO_PHASE, repeats=3)
    assert time.perf_counter() - started < 2.0
    assert table["parse_us"] > 0 and table["layout_us"] > 0
    assert set(table["table_us"]) == {"instant", "twoPhase"}
    # m = 2c+1 = 5 positions per chain: 5^2 + 2 configurations, 9^2 - 5^2 + 2 edges
    assert (search["configurations"], search["edges"], search["correct"]) == (27, 58, True)
    assert search["us_per_edge"] == search["us"] / 58

    monkeypatch.setattr(curves.inputs.ForkFamily, "edges", lambda fam, mode, action_mode: 57)
    assert curves.measure_search(2, 2, curves.inputs.CONCURRENT, curves.inputs.TWO_PHASE,
                                 repeats=1)["correct"] is False


def test_one_check_cell_reads_judges_and_checks_its_line_count(monkeypatch):
    curves = _curves()
    started = time.perf_counter()
    cell = curves.measure_check("token", (2, 2), repeats=3)
    assert time.perf_counter() - started < 2.0
    # twoPhase: 2kc + 3 configurations, judged satisfied
    assert (cell["lines"], cell["expected_lines"], cell["verdict"], cell["correct"]) == (11, 11, "satisfied", True)
    assert cell["read_us_per_line"] > 0 and cell["us_per_pair"] > 0
    assert cell["write_us_per_line"] > 0 and cell["judge_peak_bytes_per_line"] > 0

    monkeypatch.setattr(curves.inputs.ForkFamily, "run_length", lambda fam, action_mode: 12)
    assert curves.measure_check("token", (2, 2), repeats=1)["correct"] is False


def test_a_v1_check_cell_judges_its_file_with_the_header():
    cell = _curves().measure_check("v1", 3, repeats=1)
    # fac n=3: 6 states, judged satisfied by `conforms` and by `check-trace` on the file
    assert (cell["lines"], cell["expected_lines"], cell["correct"]) == (6, 6, True)
    assert cell["write_us_per_line"] > 0 and cell["judge_peak_bytes_per_line"] > 0


def test_one_reach_cell_times_the_command_and_checks_its_report(monkeypatch):
    curves = _curves()
    cell = curves.measure_reach(2, 2, curves.inputs.CONCURRENT, curves.inputs.TWO_PHASE, repeats=3)
    assert (cell["exit"], cell["edges"], cell["correct"]) == (0, 58, True)
    assert cell["reach_us_per_edge"] == cell["us"] / 58

    monkeypatch.setattr(curves.inputs.ForkFamily, "edges", lambda fam, mode, action_mode: 57)
    assert curves.measure_reach(2, 2, curves.inputs.CONCURRENT, curves.inputs.TWO_PHASE,
                                repeats=1)["correct"] is False
