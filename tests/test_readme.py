"""The README's examples run as written, so the docs cannot name a deleted API."""

import json
import re
from pathlib import Path

from lrtensor.cli import main as cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.DOTALL)


def test_library_example_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_decompose_config_example_exits_zero(tmp_path):
    (raw,) = [json.loads(block) for block in _blocks("json") if '"decompose"' in block]
    cfg = tmp_path / "decompose.json"
    cfg.write_text(json.dumps(raw))
    assert cli_main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
