"""scripts/same_outputs.py: the comparison of two sides' outputs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_names_each_difference():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    run = {"exit": 0, "stdout": b"a: 1\n", "stderr": b"", "files": {"trace.csv": b"0,1\n"}}
    parent = {"analyze": run, "reproduce": run, "tune": run}
    change = {
        "analyze": run,
        "reproduce": {**run, "exit": 4, "files": {"trace.csv": b"0,2\n", "extra": b""}},
        "simulate": run,
        "tune": {**run, "stderr": b"warning\n"},
    }
    assert same_outputs.compare(parent, parent) == []
    assert same_outputs.compare(parent, change) == [
        "reproduce: exit code 0 != 4",
        "reproduce: file extra only in change",
        "reproduce: file trace.csv differs from byte 2 (4 and 4 bytes)",
        "simulate: only in change",
        "tune: stderr differs from byte 0 (0 and 8 bytes)",
    ]
