"""Each layout that tools/cli_outputs.py names for an invocation is the one its passes have."""
import importlib.util
import os
import sys
from pathlib import Path

import pytest

import randent.cli
import randent.protocol

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the tool's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


LAYOUT_CASES = [(k, case) for k, case in enumerate(_load_tool().CASES) if len(case) > 2]


def test_layouts_are_named():
    assert len(LAYOUT_CASES) >= 8


@pytest.mark.parametrize("case", [case for _, case in LAYOUT_CASES], ids=[f"case{k}" for k, _ in LAYOUT_CASES])
def test_named_layout(case, pass_log, monkeypatch, tmp_path):
    argv, patch, want = case
    for name, value in patch.items():
        monkeypatch.setattr(randent.protocol, name, value)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = list(argv)
    at = argv.index("--output") + 1
    argv[at] = str(tmp_path / argv[at])
    randent.cli.main(argv)

    groups = []
    for entry in pass_log:
        if not entry.carry:  # a group's first pass carries nothing
            groups.append([])
        groups[-1].append(entry)
    got = dict(
        groups=tuple(group[0].points for group in groups),
        passes={tuple(entry.realizations for entry in group) for group in groups},
        carry={group[-1].carry for group in groups},
        h={group[-1].h for group in groups},
        looks=any(entry.replays for entry in pass_log),
    )
    assert got == dict(want, passes={want["passes"]}, carry={want["carry"]}, h={want["h"]})
