"""The names the benchmark in perfbench/ looks up in jcas exist.

perfbench wraps layers and calls entry points by module attribute, so a
name moved or renamed in jcas breaks it only when it runs. These tests read
its sources (they import nothing from it) and look each name up.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    path = PERFBENCH / name
    if not path.is_file():
        pytest.skip(f"no {path}")
    return ast.parse(path.read_text(), filename=str(path))


def test_every_probe_target_exists():
    probes = next(node.value for node in ast.walk(_tree("tracing.py"))
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)]
                  == ["PROBES"])
    targets = [tuple(ast.literal_eval(e) for e in entry.elts[:2])
               for entry in probes.elts]
    assert ("receiver", "build_pattern") in targets
    missing = [(mod, attr) for mod, attr in targets
               if not hasattr(importlib.import_module(f"jcas.{mod}"), attr)]
    assert missing == []


def test_every_cli_name_the_runner_looks_up_exists():
    from jcas import cli
    names = {node.attr for name in ("workloads.py", "run.py")
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.Attribute) and (
                 isinstance(node.value, ast.Name) and node.value.id == "cli"
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr == "cli")}
    assert {"cache_dir", "pattern_cache_key", "read_rd_binary", "Scenario",
            "run_preset", "run_simulate", "load_or_build_pattern"} <= names
    assert sorted(n for n in names if not hasattr(cli, n)) == []
