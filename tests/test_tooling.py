"""The names the benchmark in perfbench/ looks up in jcas exist, and the
background worker is reached only through jcas.util.

perfbench wraps layers and calls entry points by module attribute, so a
name moved or renamed in jcas breaks it only when it runs. These tests read
its sources (they import nothing from it) and look each name up.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "jcas"


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


def test_perfbench_pattern_path_is_the_cached_file(tmp_path, monkeypatch):
    # perfbench rebuilds the cache file's path from these two names to tell
    # a hit from a miss and to check what calibrate wrote
    from jcas import cache, cli
    monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path))
    for name in ("cache_dir", "pattern_cache_key", "pattern_path",
                 "load_or_build_pattern"):
        assert getattr(cli, name) is getattr(cache, name)
    scn = cli.Scenario(scheme="fsi_tail", k=8, n_fft=256, n_cp=64, scs_hz=480e3)
    path = cli.cache_dir() / f"pattern_{cli.pattern_cache_key(scn)}.npz"
    assert path == cli.pattern_path(scn)
    cli.load_or_build_pattern(scn, cli.make_schedule(scn.scheme_enum,
                                                     scn.m_codes, scn.k))
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_the_worker_is_reached_through_pending_and_share_only():
    # util.Pending for one deferred call (the noise draw), util.share for a
    # queue of tasks run beside a block; everything else stays in util
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    users = {call: sorted(name for name, text in sources.items() if call in text)
             for call in ("background_worker(", ".submit(", "Pending(")}
    assert users == {"background_worker(": ["util.py"], ".submit(": ["util.py"],
                     "Pending(": ["channel.py", "util.py"]}
