"""The oracle, and numpy with it, loads only on first use.

Each check runs in a fresh interpreter, so what this test process has
already imported does not matter.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import firebreak

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def python(code, cwd=None):
    """Run ``code`` in a fresh interpreter with only ``src`` on the path; fail on any error."""
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


def test_import_does_not_load_numpy():
    python("""
        import sys
        import firebreak
        assert "numpy" not in sys.modules
        assert "firebreak.oracle" not in sys.modules
    """)


def test_cli_commands_other_than_oracle_do_not_load_numpy(tmp_path):
    python("""
        import sys
        from firebreak.cli import main
        commands = [
            ["construct", "--type", "seventeen-ninths", "--headstart", "1", "--cycles", "4",
             "--out", "s.json"],
            ["simulate", "--system", "s.json", "--curve-out", "c.csv", "--intervals-out", "k.json"],
            ["maxima", "--system", "s.json", "--out", "m.json"],
            ["check", "--system", "s.json", "--speed", "17/9"],
            ["optimize", "--scheme", "beta"],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
        assert "numpy" not in sys.modules
    """, cwd=tmp_path)


def test_oracle_name_loads_numpy():
    python("""
        import sys
        import firebreak
        firebreak.grid_consumption
        assert "numpy" in sys.modules
    """)


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
