"""``tools/mc_memory.py`` end to end: one body of each kind at small sizes."""

import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "mc_memory.py"


def test_one_body_prints_one_json_line():
    argv = [sys.executable, str(_TOOL), "--bodies", "1", "--trials", "50"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
    [line] = out.splitlines()
    record = json.loads(line)
    assert (record["bodies"], record["rows"], record["trials"]) == (1, 28, 50)
    assert record["wall_s_median"] > 0 and record["peak_rss_mb"] > 0
    assert record["minor_faults_per_body"] >= 0


def test_gate_pass_body_prints_one_json_line():
    # the grid's 25 rows at 100 trials, 40 k-th distance rows, 10 mean counts
    argv = [sys.executable, str(_TOOL), "--body", "gate_pass", "--bodies", "1", "--trials", "100"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
    [line] = out.splitlines()
    record = json.loads(line)
    assert (record["bodies"], record["rows"], record["trials"]) == (1, 25, 100)
    assert record["wall_s_median"] > 0 and record["peak_rss_mb"] > 0
    assert record["minor_faults_per_body"] >= 0


def test_gate_body_prints_one_json_line():
    # one run_all on 2 workers at 100 / 40 / 10 trials
    argv = [sys.executable, str(_TOOL), "--body", "gate", "--bodies", "1", "--trials", "100"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
    [line] = out.splitlines()
    record = json.loads(line)
    assert (record["bodies"], record["rows"], record["trials"]) == (1, 25, 100)
    assert record["wall_s_median"] > 0 and record["cpu_s_median"] > 0
    assert record["peak_rss_mb"] > 0 and record["children_peak_rss_mb"] >= 0
