"""Submodules load on first use, and each CLI command only the submodules it runs,
none of them numpy or ``dataclasses``: numpy loads only for ``grid_arrival``.

Each check runs in a fresh interpreter, so what this test process has
already imported does not matter.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import firebreak

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def python(code, cwd=None):
    """Stdout of ``code`` run in a fresh interpreter with only ``src`` on the path; fail on any error."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_import_loads_no_submodule():
    python("""
        import sys
        import firebreak
        assert [m for m in sys.modules if m.startswith("firebreak")] == ["firebreak"]
        assert "numpy" not in sys.modules
    """)


def test_model_is_the_base_module():
    # geodesic, simulate and oracle import the lattice helper and the per-side recurrence from model,
    # which imports none of them
    python("""
        import sys
        import firebreak.model
        assert sorted(m for m in sys.modules if m.startswith("firebreak")) == ["firebreak", "firebreak.model"]
        assert callable(firebreak.model._on_one_scale) and callable(firebreak.model._verticals)
    """)


def test_library_calls_load_only_what_they_run():
    # 17/9 never needs the optimizer, and the simulator never needs geodesic
    python("""
        import sys
        import firebreak

        def loaded():
            return {m for m in sys.modules if m.startswith("firebreak.")}

        system = firebreak.build_seventeen_ninths(1, cycles=3)
        curves = firebreak.consumption_curve(system)
        firebreak.ratio_maxima(curves.total, firebreak.valid_horizon(system))
        firebreak.check_speed(system, "17/9")
        assert loaded() == {"firebreak.model", "firebreak.constructions", "firebreak.simulate"}, loaded()
        firebreak.geodesic_distance(system, (1, 0))
        assert "firebreak.geodesic" in loaded() and "firebreak.optimize" not in loaded()
        firebreak.build_improved()
        assert "firebreak.optimize" in loaded()
    """)


def test_resolved_names_are_cached():
    python("""
        import firebreak
        assert "consumption_curve" not in vars(firebreak)
        curve = firebreak.consumption_curve
        assert vars(firebreak)["consumption_curve"] is curve is firebreak.simulate.consumption_curve
    """)


SIMULATOR = {"model", "simulate"}

# each command with the firebreak submodules it loads besides ``cli``
COMMANDS = {
    "construct": (["construct", "--type", "seventeen-ninths", "--headstart", "1", "--cycles", "4",
                   "--out", "built.json"], {"model", "constructions"}),
    "construct-improved": (["construct", "--type", "improved", "--cycles", "4", "--out", "improved.json"],
                           {"model", "constructions", "optimize"}),
    "simulate": (["simulate", "--system", "s.json", "--curve-out", "c.csv", "--intervals-out", "k.json"],
                 SIMULATOR),
    "maxima": (["maxima", "--system", "s.json", "--out", "m.json"], SIMULATOR),
    "check": (["check", "--system", "s.json", "--speed", "17/9", "--horizon", "20"], SIMULATOR),
    "oracle": (["oracle", "--system", "s.json", "--cell", "1"], SIMULATOR | {"oracle"}),
    "optimize": (["optimize", "--scheme", "beta"], {"optimize"}),
}


@pytest.fixture
def workdir(tmp_path):
    firebreak.save(firebreak.build_seventeen_ninths(1, cycles=3), tmp_path / "s.json")
    return tmp_path


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_command_loads_only_what_it_runs(command, workdir):
    argv, loaded = COMMANDS[command]
    out = python(f"""
        import contextlib, io, sys
        from firebreak.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
        print(sorted(m for m in sys.modules if m.startswith("firebreak")))
        print("numpy" in sys.modules)
        print("dataclasses" in sys.modules)
    """, cwd=workdir)
    modules = sorted({"firebreak", "firebreak.cli"} | {f"firebreak.{name}" for name in loaded})
    assert out.splitlines() == [repr(modules), "False", "False"]


def run_every_command(workdir, numpy):
    """Each command's exit code, stdout and stderr, run in one fresh interpreter with or without numpy."""
    return python(f"""
        import contextlib, io, sys
        if not {numpy!r}:
            sys.modules["numpy"] = None  # as if numpy were not installed
        from firebreak.cli import main
        for argv in {[argv for argv, _ in COMMANDS.values()]!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            print(repr((argv[0], code, out.getvalue(), err.getvalue())))
    """, cwd=workdir)


def test_every_command_runs_without_numpy(workdir):
    without = run_every_command(workdir, numpy=False)
    assert without == run_every_command(workdir, numpy=True)
    results = [ast.literal_eval(line) for line in without.splitlines()]
    expected = [(argv[0], 0, "") for argv, _ in COMMANDS.values()]  # two entries run construct
    assert [(name, code, err) for name, code, _, err in results] == expected
    assert ("oracle", 0, "PASS: max deviation 5 at t=52 (tolerance 16)\n", "") in results


def test_grid_arrival_alone_loads_numpy():
    python("""
        import sys
        import firebreak
        system = firebreak.build_seventeen_ninths(1, cycles=2)
        sampled = firebreak.grid_consumption(system, 1.0, 18.0)
        firebreak.compare(firebreak.consumption_curve(system, 18, truncated=True).total, sampled, 1.0)
        assert "numpy" not in sys.modules
        firebreak.grid_arrival(firebreak.build_scene(system, 1.0, 18.0))
        assert "numpy" in sys.modules
    """)


@pytest.mark.parametrize("call, name", [
    ("firebreak.grid_arrival(scene)", "grid_arrival"),
    ("scene.passable", "GridScene.passable"),
], ids=["grid_arrival", "passable"])
def test_without_numpy_the_grid_names_it_in_one_line(call, name):
    out = python(f"""
        import sys
        sys.modules["numpy"] = None  # as if numpy were not installed
        import firebreak
        scene = firebreak.build_scene(firebreak.build_flat(1), 1.0, 4.0)
        try:
            {call}
        except ModuleNotFoundError as exc:
            print(exc.name)
            print(exc)
    """)
    assert out == f"numpy\n{name} needs numpy, which is not installed; install the grid extra: pip install 'firebreak[grid]'\n"


def test_oracle_submodule_right_after_import():
    python("""
        import firebreak
        scene = firebreak.oracle.build_scene(firebreak.build_flat(1), 1.0, 4.0)
        assert isinstance(scene, firebreak.GridScene)
    """)


def test_names_and_dir_as_if_loaded_eagerly():
    python("""
        import firebreak
        before = dir(firebreak)
        assert set(firebreak.__all__) | {"oracle"} <= set(before)
        namespace = {}
        exec("from firebreak import *", namespace)
        assert set(firebreak.__all__) <= set(namespace)
        assert namespace["grid_arrival"] is firebreak.oracle.grid_arrival
        assert dir(firebreak) == before
    """)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'firebreak' has no attribute 'no_such_name'"):
        firebreak.no_such_name


@pytest.mark.parametrize("name", ["forced_descent", "FaceArrivalProfile"])
def test_reference_only_names_are_not_exported(name):
    # the closed-form descent and the profile record's interpolator are kept in tests/geodesic_reference.py
    with pytest.raises(AttributeError, match=f"module 'firebreak' has no attribute '{name}'"):
        getattr(firebreak, name)
    assert name not in firebreak.__all__ and name not in dir(firebreak)
    assert firebreak.face_arrival_profiles is firebreak.geodesic.face_arrival_profiles


def test_curve_storage_is_read_only_in_simulate():
    # other modules hand a curve to simulate's readers and never unpack its kept lattice or its points
    found = [
        (path.name, node.lineno, node.attr)
        for path in sorted(pathlib.Path(SRC, "firebreak").glob("*.py")) if path.name != "simulate.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("_lattice", "_points")
    ]
    assert found == []


@pytest.mark.parametrize("owner, name", [
    ("", "default_horizon"),  # the default horizon is consumption_curve(system).total.end
    ("simulate", "default_horizon"),
    ("SideCheck", "ok"),  # validate's report is read by its fields
    ("ValidationReport", "all_ok"),
], ids=["firebreak.default_horizon", "simulate.default_horizon", "SideCheck.ok", "ValidationReport.all_ok"])
def test_second_answers_are_gone(owner, name):
    assert not hasattr(getattr(firebreak, owner) if owner else firebreak, name)
    assert name not in firebreak.__all__ and name not in dir(firebreak)


def top_level_names(tree):
    """The names a module binds at its top level by ``def``, ``class`` or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))


def imported_names(tree):
    """The names a module binds by ``import``, ``from __future__`` aside."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names}


def read_names(tree):
    """The names and attributes a module reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)}


def test_every_private_name_and_import_is_used():
    # a private helper whose last caller went, or an import left behind, is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(SRC, "firebreak").glob("*.py"))}
    everywhere = set().union(*(read_names(tree) | imported_names(tree) for tree in trees.values()))
    unused = [(module, name) for module, tree in trees.items() for name in top_level_names(tree)
              if name.startswith("_") and not name.startswith("__") and name not in everywhere]
    assert unused == []
    unread = {module: imported_names(tree) - read_names(tree) for module, tree in trees.items()}
    assert {module: names for module, names in unread.items() if names} == {}
