"""The README's examples run as written, its config table and format names match
the reader, its function list matches the registry, and every export follows the
rule in `lrtensor`'s docstring."""

import dataclasses
import inspect
import json
import re
from pathlib import Path

import lrtensor as lt
from lrtensor.cli import main as cli_main
from lrtensor.functions import _REGISTRY
from lrtensor.harness import _EVERY, _EXPERIMENTS, _FORMAT_NAMES, ExperimentConfig, _format

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ACCEPTANCE = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()


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


def _default(cell: str):
    """A table cell as the default it states: `required`, or a JSON literal in backticks."""
    if cell == "required":
        return dataclasses.MISSING
    value = json.loads(cell.strip("`"))
    return tuple(value) if isinstance(value, list) else value


def test_config_table_states_every_field_and_its_default():
    rows = re.findall(r"^\| `(\w+)` \| (required|`[^`]+`) \|", README, flags=re.MULTILINE)
    table = [(name, _default(cell)) for name, cell in rows]
    assert table == [(f.name, f.default) for f in dataclasses.fields(ExperimentConfig)]


def _readers(name: str) -> str:
    """The experiments `_EXPERIMENTS` says read the field `name`, in its order, each in bold if it needs it."""
    if name in _EVERY:
        return "every experiment"
    return ", ".join(f"**`{experiment}`**" if name in needs else f"`{experiment}`"
                     for experiment, (_, needs, reads) in _EXPERIMENTS.items() if name in needs + reads)


def test_config_table_names_the_experiments_that_read_each_field():
    rows = re.findall(r"^\| `(\w+)` \| (?:required|`[^`]+`) \| ([^|]*) \|", README, flags=re.MULTILINE)
    assert rows == [(f.name, _readers(f.name)) for f in dataclasses.fields(ExperimentConfig)]


def test_format_names_are_the_ones_the_reader_accepts():
    for name in _FORMAT_NAMES:
        assert _format(name) == name
    (row,) = re.findall(r"^\| `format` \| `[^`]+` \| [^|]* \| (.*) \|$", README, flags=re.MULTILINE)
    (line,) = re.findall(r"^Formats: (.*?)\.", README, flags=re.MULTILINE)
    for listed in (row, line):
        assert re.findall(r"`([\w-]+)`", listed) == list(_FORMAT_NAMES)
    assert re.search(r"`tt-bidir` is a legacy name that\s+runs `tt`'s sweep", README)


def test_function_list_is_the_registry():
    listed = re.findall(r"^- `(\w+)`: layout `(\w+)`, params (.*)$", README, flags=re.MULTILINE)
    table = [(fn_id, layout, tuple(re.findall(r"`(\w+)`", params))) for fn_id, layout, params in listed]
    assert table == [(fn_id, entry.layout, entry.params) for fn_id, entry in _REGISTRY.items()]


def _annotations(obj) -> str:
    """What `obj` takes and returns, as its signature annotates them."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    return " ".join(str(a) for a in [sig.return_annotation, *(p.annotation for p in sig.parameters.values())])


def test_every_export_follows_the_stated_rule():
    exported = {name: getattr(lt, name) for name in dir(lt)
                if not name.startswith("_") and not inspect.ismodule(getattr(lt, name))}

    def admitted(name) -> bool:
        others = [obj for other, obj in exported.items() if other != name and callable(obj)]
        word = re.compile(rf"\b{name}\b")
        read = word.search(README) or word.search(ACCEPTANCE)
        taken_or_returned = any(word.search(_annotations(obj)) for obj in others)
        raised = any(re.search(rf"\braise {name}\b", inspect.getsource(obj)) for obj in others)
        return bool(read or taken_or_returned or raised)

    assert [name for name in exported if not admitted(name)] == []
