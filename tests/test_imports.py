"""The import graph.

The package root holds only its docstring, so `import rieszkit` loads no
module of the package, and no fixed import order hides a module that fails
to import on its own.  `import rieszkit.cli` loads every module: the
benchmark's tracer reads each layer as an attribute of the package.  Each
check runs in a fresh isolated interpreter, since this process has already
imported the package.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(f"rieszkit.{p.stem}" for p in (SRC / "rieszkit").glob("*.py")
                 if p.stem != "__init__")


def _loaded(module: str) -> list:
    """The package's modules a fresh `python -I` holds after importing `module`."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('rieszkit.')))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, (module, out.stderr)
    return ast.literal_eval(out.stdout)


def test_the_root_loads_nothing_and_each_module_imports_alone():
    assert _loaded("rieszkit") == []
    for module in MODULES:
        assert module in _loaded(module), module
    assert _loaded("rieszkit.cli") == MODULES
