"""The public names resolve: every ``__all__`` entry, and every name the benchmark reads.

A deletion that breaks ``bench/`` would otherwise show only when someone runs
the benchmark.  The package root holds only the modules and the types, the
README's Python API example runs as written and its tables name every
scenario key and preset, and no module keeps an import or a private name
that nothing reads.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zenokick

MODULES = ("analytics", "cli", "core", "engine", "oracle")
TYPES = (
    "CapacityError",
    "OffResonanceError",
    "SystemParams",
    "KickSchedule",
    "ReducedState",
    "Trajectory",
)
README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(zenokick.__file__).resolve().parent

#: what bench/kernels.py and bench/worker.py reach for, and the spans that
#: bench/run.py and bench/tracer.py read by name: a renamed span reads 0
BENCHMARK_NAMES = (
    "ReducedState",
    "SystemParams",
    "KickSchedule",
    "Trajectory",
    "core.free_propagate",
    "core.apply_kick",
    "core.schedule_steps",
    "engine.run_equally_spaced",
    "engine.sweep",
    "engine.run_schedule",
    "engine.final_state",
    "analytics.survival_function",
    "analytics.finite_difference_rate",
    "oracle.initial_state",
    "oracle.kick",
    "oracle.free_step",
    "oracle.run_schedule",
    "cli.parse_config",
    "cli.main",
    "cli.trajectory_csv",
    "cli.sweep_csv",
    "cli.oracle_engine_deviation",
    "cli.rate_comparison_rows",
)


@pytest.mark.parametrize("module", ["zenokick", *(f"zenokick.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("dotted", BENCHMARK_NAMES)
def test_every_name_the_benchmark_reads_resolves(dotted):
    obj = zenokick
    for part in dotted.split("."):
        obj = getattr(obj, part)
    assert obj is not None


def test_the_package_root_holds_only_the_modules_and_the_types():
    # One import path per name: functions are reached through their module.
    assert sorted(zenokick.__all__) == sorted([*MODULES, *TYPES, "__version__"])


def test_the_readme_python_api_example_runs():
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["p10"] == pytest.approx(0.96218, abs=5e-6)


def test_the_readme_lists_every_scenario_key_and_preset():
    from zenokick import cli

    text = README.read_text()
    section = text.split("\n### Scenario files\n", 1)[1].split("\n### ", 1)[0]
    key_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert {key for cell in key_cells for key in re.findall(r"`([^`]+)`", cell)} == set(cli._KEYS)
    presets = text.split("\nPresets: ", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`([^`]+)` \(", presets)) == set(cli.PRESETS)


def entries_taking(parameters: set[str], table: dict) -> tuple[set[str], set[str]]:
    """The public callables whose signature takes one of ``parameters``, and ``table``'s keys.

    Both as ``module.name``; a key without a module names an ``__all__`` entry.
    """

    def module_of(name):
        (module,) = [m for m in MODULES if name in importlib.import_module(f"zenokick.{m}").__all__]
        return module

    keys = {key if "." in key else f"{module_of(key)}.{key}" for key in table}
    takes = set()
    for module in MODULES:
        mod = importlib.import_module(f"zenokick.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            if parameters & set(inspect.signature(obj).parameters):
                takes.add(f"{module}.{name}")
    return takes, keys


def test_every_entry_that_takes_a_kick_value_is_in_the_refusal_table():
    # A new public entry that takes g, g_values or kicks must show there that
    # it reads them through ``core._real``.
    from test_core import REAL_NUMBER_ENTRIES

    takes, table = entries_taking({"g", "g_values", "kicks"}, REAL_NUMBER_ENTRIES)
    assert takes and takes <= table, sorted(takes - table)


def test_every_entry_that_takes_a_count_is_in_the_refusal_table():
    # A new public entry that takes a count must show there that it reads it
    # through ``core._count``.
    from test_core import COUNT_ENTRIES

    names = {"n", "n_values", "n_choices", "trials", "resolution"}
    takes, table = entries_taking(names, COUNT_ENTRIES)
    assert takes and takes <= table, sorted(takes - table)


def test_every_entry_that_takes_a_real_number_is_in_the_refusal_table():
    # A new public entry that takes a time, a step, a duration, an energy or a
    # sampling rate must show there that it reads it through ``core._real``.
    # ``Trajectory``'s ``t`` is a column of samples, which ``_check_samples`` guards.
    from test_core import REAL_ENTRIES

    names = {
        "t", "t_m", "t1", "dt", "total_time", "interval", "step",
        "coupling", "eps_a", "eps_b", "sample_resolution",
    }
    takes, table = entries_taking(names, REAL_ENTRIES)
    takes.discard("core.Trajectory")
    assert takes and takes <= table, sorted(takes - table)


def test_importing_the_package_leaves_the_cli_unloaded():
    # ``cli`` (and argparse) load on first use of ``zenokick.cli``.
    src = str(Path(zenokick.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, zenokick\n"
        "print(sorted({'argparse', 'zenokick.cli'} & set(sys.modules)))\n"
        "print(zenokick.cli.main is sys.modules['zenokick.cli'].main)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nTrue\n", "")


def test_an_oracle_check_run_loads_no_numpy_random(tmp_path):
    # The trials are drawn with the standard library's ``random``, which
    # ``import numpy`` has already loaded; numpy's random subpackage would
    # pull in ``hashlib``, ``secrets`` and OpenSSL on every fresh run.
    src = str(Path(zenokick.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scenario = tmp_path / "check.txt"
    out = tmp_path / "report.txt"
    scenario.write_text(
        f"scenario = oracle-check\ntrials = 2\nN_list = 3\nT = 1\nresolution = 10\nout = {out}\n"
    )
    probe = (
        "import sys, zenokick\n"
        f"code = zenokick.cli.main([{str(scenario)!r}])\n"
        "print(code, sorted({'numpy.random', 'hashlib', 'secrets'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report, wrote, loaded = proc.stdout.splitlines()
    assert report.startswith("status=PASS max_dev=") and report.endswith("trials=2")
    assert wrote == f"wrote {out}"
    assert loaded == "0 []"
    assert out.read_text() == report + "\n"


def used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, in its code, in its string annotations and in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= used_names(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.name)
def test_no_module_keeps_an_unused_import(path):
    # A deletion can leave its imports behind; nothing else would notice them.
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = used_names(tree)
    assert [(line, name) for name, line in imported.items() if name not in used] == []


def test_every_private_name_is_read():
    # A deletion can leave a private helper or constant behind that nothing
    # reads.  A module's private name is read as a name in its own code, as
    # a name imported from it, or as an attribute of the module.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCES.glob("*.py"))}
    read = set()
    for module, tree in trees.items():
        origin = {}  # local name -> (module, name) it was imported from
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    source = (node.module, alias.name) if node.module else (alias.name, None)
                    origin[alias.asname or alias.name] = source
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(origin.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                imported_module, name = origin.get(node.value.id, (None, None))
                if imported_module in trees and name is None:
                    read.add((imported_module, node.attr))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [
                f"{module}.{name}" for name in names
                if name.startswith("_") and not name.startswith("__")
                and (module, name) not in read
            ]
    assert unread == []


def test_no_command_raises():
    # A scenario rule belongs to ``cli._check_scenario``, which every config
    # passes when it is built; a ``raise`` in a command would refuse a
    # scenario only after parsing, and without the file's name.
    tree = ast.parse((SOURCES / "cli.py").read_text())
    raising = [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
        and any(isinstance(part, ast.Raise) for part in ast.walk(node))
    ]
    assert raising == []


#: The internals of the two paths, which only ``engine`` and ``oracle`` drive
PATH_INTERNALS = {"_sample_layout", "_run_batch", "_batches", "_check_samples"}


def test_the_cli_drives_no_path_internals():
    # The CLI parses, dispatches and writes: laying out samples, stepping a
    # batch and guarding it belong to the module whose path they step.
    tree = ast.parse((SOURCES / "cli.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert sorted(named & PATH_INTERNALS) == []


def test_every_refusal_is_a_value_error():
    # So a caller, and ``cli.main``, catch one exception type for a refused input.
    assert issubclass(zenokick.CapacityError, ValueError)
    assert issubclass(zenokick.OffResonanceError, ValueError)


#: The functions that may call ``math.isfinite``: ``core._real``, the one reader of
#: real inputs, and the checks of values derived from read ones (the angles of a free
#: step, the sum and difference of the energies, ``resolution / T``, a literal in a
#: scenario file, the fields of a reduced state).
FINITENESS_CHECKS = {
    "core._real",
    "core._check_free_step",
    "core.SystemParams.__post_init__",
    "core.ReducedState.__post_init__",
    "cli._check_scenario",
    "cli.parse_number",
}


def test_only_the_reader_of_real_numbers_tests_an_input_for_finiteness():
    # A real input is read by ``core._real``; a finiteness test anywhere else
    # would be a second reader, with its own wording.
    calls = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Attribute) and func.attr == "isfinite"
                    and isinstance(func.value, ast.Name) and func.value.id == "math"
                ) or (isinstance(func, ast.Name) and func.id == "isfinite"):
                    calls.add(scope)
            visit(child, scope)

    for path in sorted(SOURCES.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert "core._real" in calls
    assert sorted(calls - FINITENESS_CHECKS) == []


def test_a_run_loads_neither_fractions_nor_decimal(tmp_path):
    # The CSV kernel's tables are float and str literals: its exact decimal
    # digits come from numpy, not from ``fractions`` or ``decimal``, which no
    # module of a run loads.
    src = str(Path(zenokick.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scenario = tmp_path / "run.txt"
    out = tmp_path / "traj.csv"
    scenario.write_text(
        "scenario = run\nT = 1\nt_kicks = 0.1, 0.3, 0.5, 0.7, 0.9\ng_list = 3pi/4\n"
        f"resolution = 2000\nout = {out}\n"
    )
    probe = (
        "import sys, zenokick\n"
        "cli, pieces = zenokick.cli, []\n"
        "kernel = cli._float_pieces\n"
        "cli._float_pieces = lambda values: pieces.append(kernel(values)) or pieces[-1]\n"
        f"code = cli.main([{str(scenario)!r}])\n"
        "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        "print(any(str(x)[-4:] in ('e-05', 'e-06') for p in pieces for x in p[-1]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    # The kernel wrote some of the p01 column in e-notation.
    assert proc.stdout.splitlines() == [f"wrote {out} (g=2.3561944901923448)", "0 []", "True"]
