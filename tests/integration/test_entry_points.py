"""Import smoke for the scripts outside ``testpaths``.

``benchmarks/`` and ``examples/`` are not collected by the tier-1
suite, so a stale import there (a renamed or deleted API) would break
nothing that runs by default.  Importing each file under a
non-``__main__`` name executes its module body — every import and
top-level definition — without running the experiment itself.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS = ROOT / "benchmarks"
EXAMPLES = ROOT / "examples"

BENCH_FILES = sorted(BENCHMARKS.glob("bench_*.py"))
#: Examples that only run under ``if __name__ == "__main__"``; the rest
#: (``custom_scenario_spec.py``) do their work at import time.
EXAMPLE_FILES = sorted(
    path
    for path in EXAMPLES.glob("*.py")
    if 'if __name__ == "__main__":' in path.read_text(encoding="utf-8")
)


def _import_as(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_file_sets_are_not_empty():
    assert len(BENCH_FILES) >= 20
    assert len(EXAMPLE_FILES) == len(list(EXAMPLES.glob("*.py"))) - 1


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_benchmark_imports(path, monkeypatch):
    # Benchmarks import their shared helpers as the top-level
    # ``conftest`` module, which pytest has not loaded from there.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setitem(
        sys.modules, "conftest", _import_as(BENCHMARKS / "conftest.py", "conftest")
    )
    _import_as(path, f"_smoke_{path.stem}")


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.name for p in EXAMPLE_FILES]
)
def test_example_imports(path):
    _import_as(path, f"_smoke_example_{path.stem}")
