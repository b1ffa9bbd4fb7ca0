"""Import sets: a process imports only what its path reads.

Every package resolves its re-exports on first attribute access
(:mod:`repro._lazy`), so the read process -- ``python -m
repro.server.workers``, started once per ``--workers`` slot and per shard
replica -- loads a snapshot without importing the HTTP front-end, the
streaming subsystem, the mobility generators or the experiment harness.
"""

import importlib
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.measures",
    "repro.mobility",
    "repro.obs",
    "repro.scenarios",
    "repro.server",
    "repro.service",
    "repro.storage",
    "repro.streaming",
    "repro.traces",
]

#: Modules the read process never needs (prefixes cover their submodules).
NOT_ON_THE_READ_PATH = [
    "http.server",
    "repro.server.app",
    "repro.server.coalescer",
    "repro.server.frontend",
    "repro.streaming",
    "repro.mobility",
    "repro.core.join",
    "repro.experiments",
    "repro.scenarios",
]


def imported_after(statement: str) -> set:
    """The module names a fresh interpreter holds after ``statement``."""
    script = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return set(completed.stdout.split())


def test_the_read_process_imports_only_the_read_path():
    modules = imported_after("import repro.server.workers")
    loaded = sorted(
        name
        for name in modules
        for banned in NOT_ON_THE_READ_PATH
        if name == banned or name.startswith(banned + ".")
    )
    assert loaded == []


def test_a_bare_import_loads_no_subsystem():
    modules = imported_after("import repro")
    assert "numpy" not in modules
    assert sorted(name for name in modules if name.startswith("repro")) == ["repro", "repro._lazy"]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_export_resolves_and_is_listed(package_name):
    package = importlib.import_module(package_name)
    listed = dir(package)
    for name in package.__all__:
        assert name in listed, name
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        package.not_an_export


def test_star_import_and_named_imports_resolve():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    from repro import ShardedEngine, TraceQueryEngine
    from repro.core.engine import TraceQueryEngine as defined
    from repro.service.sharded import ShardedEngine as sharded

    assert TraceQueryEngine is defined and ShardedEngine is sharded
