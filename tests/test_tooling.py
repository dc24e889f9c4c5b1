"""The names the benchmark in perfbench/ looks up in jcas exist, the
background worker is reached, and process-wide settings made, only through
jcas.util, a map's neighborhood rule, the Doppler ramp's factorization
and the slow-time matched filter are each written once, and the direct
pattern cell calls no BLAS.

perfbench wraps layers and calls entry points by module attribute, and its
probes read the wrapped calls' arguments by name, so a name moved or
renamed in jcas breaks it only when it runs. These tests read its sources
(they import nothing from it) and look each name up.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "jcas"


def _tree(name: str) -> ast.Module:
    path = PERFBENCH / name
    if not path.is_file():
        pytest.skip(f"no {path}")
    return ast.parse(path.read_text(), filename=str(path))


def _probes(tree: ast.Module) -> list[ast.Tuple]:
    """The entries of tracing.PROBES: (module, attribute, metric, counter)."""
    return next(node.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["PROBES"]).elts


def _is_cli(node: ast.expr) -> bool:   # cli or something.cli
    return (isinstance(node, ast.Name) and node.id == "cli"
            or isinstance(node, ast.Attribute) and node.attr == "cli")


def _keys(node: ast.AST, name: str) -> set[str]:
    """The string keys of every name["..."] inside node."""
    return {sub.slice.value for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
            and sub.value.id == name and isinstance(sub.slice, ast.Constant)}


def test_every_probe_target_exists():
    targets = [tuple(ast.literal_eval(e) for e in entry.elts[:2])
               for entry in _probes(_tree("tracing.py"))]
    assert ("receiver", "build_pattern") in targets
    missing = [(mod, attr) for mod, attr in targets
               if not hasattr(importlib.import_module(f"jcas.{mod}"), attr)]
    assert missing == []


def test_every_cli_name_the_runner_looks_up_exists():
    from jcas import cli
    names = {node.attr for name in ("workloads.py", "run.py")
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.Attribute) and _is_cli(node.value)}
    assert {"cache_dir", "pattern_cache_key", "read_rd_binary", "Scenario",
            "run_preset", "run_simulate", "load_or_build_pattern"} <= names
    assert sorted(n for n in names if not hasattr(cli, n)) == []


def test_every_argument_a_probe_reads_is_a_parameter():
    # a counter reads the wrapped call's arguments by name, bound to the
    # wrapped function's signature; the pattern cache's wrapper (the probe
    # without a time metric) also reads bound["scn"] to tell a hit from a miss
    tree = _tree("tracing.py")
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    read, missing = set(), []
    for entry in _probes(tree):
        mod, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        metric, counter = entry.elts[2:4]
        if isinstance(counter, ast.Call):   # a counter factory: its inner function
            counter = counter.func
        keys = _keys(defs[counter.id], "args") if isinstance(counter, ast.Name) else set()
        if ast.literal_eval(metric) is None:
            keys |= _keys(defs["wrap"], "bound")
        params = inspect.signature(
            getattr(importlib.import_module(f"jcas.{mod}"), attr)).parameters
        read |= keys
        missing += [(mod, attr, k) for k in sorted(keys) if k not in params]
    assert {"path", "rx", "scn", "truth", "bits"} <= read
    assert missing == []


def test_every_keyword_the_runner_passes_to_cli_is_a_parameter():
    from jcas import cli
    passed = {(node.func.attr, kw.arg) for name in ("workloads.py", "run.py")
              for node in ast.walk(_tree(name))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and _is_cli(node.func.value)
              for kw in node.keywords if kw.arg is not None}
    assert {("load_or_build_pattern", "validate"), ("run_preset", "seed"),
            ("run_preset", "threads")} <= passed
    assert sorted((fn, kw) for fn, kw in passed
                  if kw not in inspect.signature(getattr(cli, fn)).parameters) == []


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
    # queue of tasks run beside a block (the pattern build's slices and half
    # its solve); everything else stays in util, and the sensing chain runs
    # on the caller
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    users = {call: sorted(name for name, text in sources.items() if call in text)
             for call in ("background_worker(", ".submit(")}
    assert users == {"background_worker(": ["util.py"], ".submit(": ["util.py"]}

    def calls(name):
        return lambda node: (isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)))

    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    callers = {name: sorted((module, fn) for module, tree in trees.items()
                            for fn in _functions_using(tree, calls(name)))
               for name in ("share", "Pending")}
    assert callers == {"share": [("receiver.py", "build_pattern"), ("receiver.py", "solve")],
                       "Pending": [("channel.py", "start_noise"), ("util.py", "share")]}


def test_process_wide_settings_are_made_in_util_only():
    # the heap thresholds and the worker's fork handler are set by importing
    # any jcas module, because util is where they are made
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    users = {word: sorted(name for name, text in sources.items()
                          if re.search(rf"\b{word}\b", text))
             for word in ("ctypes", "mallopt", "register_at_fork")}
    assert users == {word: ["util.py"] for word in users}


def test_only_the_map_takes_the_magnitude_of_its_values():
    # RdMatrix.magnitude is a map's one |values|: detection, scoring, the
    # CSV writer and the selftest read it rather than take their own
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    takers = sorted(name for name, text in sources.items()
                    if re.search(r"np\.abs\(\s*[\w.]*\.values\s*[,)]", text))
    assert takers == ["receiver.py"]


def test_the_window_rule_is_written_once():
    # a map's clip/wrap neighborhood is RdMatrix.neighborhood's alone, so no
    # module pads a map; the one sliding window is capture_windows' view of
    # the receive samples
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    users = {word: sorted(name for name, text in sources.items()
                          if re.search(rf"\b{word}\b", text))
             for word in (r"np\.pad", "sliding_window_view")}
    assert users == {r"np\.pad": [], "sliding_window_view": ["receiver.py"]}


def _functions_using(tree: ast.Module, uses) -> set[str]:
    """The innermost function around each node for which uses holds
    ("<module>" outside any function)."""
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    found = set()
    for node in ast.walk(tree):
        if uses(node):
            around = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            found.add(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return found


def test_the_ramp_rule_is_written_once():
    # the factored Doppler ramp (B = isqrt(n), the outer product of two
    # exact tables) is made in one helper, which doppler_ramp and the echo
    # applied a block at a time share; a second copy of the factorization
    # could round differently
    def outer(node):
        return (isinstance(node, ast.Attribute) and node.attr == "outer"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "multiply")

    def isqrt(node):
        return (isinstance(node, ast.Attribute) and node.attr == "isqrt"
                or isinstance(node, ast.Name) and node.id == "isqrt")

    def helper(node):
        return isinstance(node, ast.Name) and node.id == "_ramp_pieces"

    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    makers = {rule.__name__: sorted((name, fn) for name, tree in trees.items()
                                    for fn in _functions_using(tree, rule))
              for rule in (outer, isqrt)}
    assert makers == {"outer": [("channel.py", "_ramp_pieces")],
                      "isqrt": [("channel.py", "_ramp_pieces")]}
    assert _functions_using(trees["channel.py"], helper) == {"doppler_ramp", "_add_echo"}


def test_the_slow_time_matched_filter_is_written_once():
    # the scatter onto the zero-filled occasion grid, its slow-time inverse
    # DFT and the G/K scale (or a band's phase) are _slow_time_map's alone:
    # the sensing chain and slow_time_matched_filter both call it
    def slow_time_ifft(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "ifft"
                and any(kw.arg == "axis" and ast.literal_eval(kw.value) == 1
                        for kw in node.keywords))

    def helper(node):
        return isinstance(node, ast.Name) and node.id == "_slow_time_map"

    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    makers = sorted((name, fn) for name, tree in trees.items()
                    for fn in _functions_using(tree, slow_time_ifft))
    assert makers == [("receiver.py", "_slow_time_map")]
    assert _functions_using(trees["receiver.py"], helper) == \
        {"slow_time_matched_filter", "process_sensing"}


def test_the_direct_cell_calls_no_blas():
    # jcas calibrate leaves the BLAS thread count as it finds it; unpinned,
    # a validated fig7 build in one process took 39.9 ms (median of 38
    # interleaved rounds) with the direct cell's sums written as @
    # products, against 38.0 ms with elementwise sums and 44.9 ms for the
    # whole-map cells before them; the BLAS threads contend with the
    # worker's pattern slices
    tree = ast.parse((SRC / "receiver.py").read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "pattern_cell_direct")
    blas = [ast.unparse(node) for node in ast.walk(fn)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and re.search(r"dot|matmul", ast.unparse(node.func))]
    assert blas == []
