"""`tools/fit_digest.py` runs on this tree: every section prints a digest."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_digest.py"


def test_fit_digest_prints_one_digest_per_section(capsys):
    spec = importlib.util.spec_from_file_location("fit_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(tool.SECTIONS) == 12
    for line in lines:
        digest, what = line.split("  ", 1)
        assert re.fullmatch(r"[0-9a-f]{64}", digest), line
        # a section this tree lacks would name itself instead of a count
        assert re.fullmatch(r"\d+ [a-z' -]+", what), line
