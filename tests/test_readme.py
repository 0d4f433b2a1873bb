"""README's examples and tables agree with the code."""

import re
from dataclasses import fields
from pathlib import Path

from tricluster import ClusteringResult, ClusterParams, RunTrace

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def test_library_quick_start_runs():
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"),
                     re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    model = namespace["model"]
    assert len(namespace["labels"]) == 100
    assert model.result_.n_clusters == 2


def test_parameter_table_lists_the_cluster_params_fields():
    rows = re.findall(r"^\| `(\w+)` +\| (\S+) +\|", _section("Parameters"),
                      re.M)
    want = []
    for f in fields(ClusterParams):
        default = f.default
        if isinstance(default, bool):
            default = "on" if default else "off"
        want.append((f.name, str(default)))
    assert rows == want


def test_result_field_list_names_every_field():
    # top-level bullets name the ClusteringResult fields, the nested
    # bullets under `trace` the RunTrace fields, each in field order
    text = _section("Library quick start")
    block = text[text.index("Its fields:\n"):]
    block = block[:block.index("\n\n", len("Its fields:\n") + 1)]
    names = re.compile(r"`(\w+)`")
    top, nested = [], []
    for item in re.findall(r"^( *)- ((?:`\w+`,?\s*)+):", block, re.M):
        (nested if item[0] else top).extend(names.findall(item[1]))
    assert top == [f.name for f in fields(ClusteringResult)]
    assert nested == [f.name for f in fields(RunTrace)]
