"""Documentation verification: doctests, runnable markdown examples, links.

Four contracts keep the docs from rotting:

1. every doctest in the public-API modules passes (and the key classes
   actually carry one);
2. every ``python`` code block in README.md and docs/*.md executes --
   blocks run top-to-bottom per file in one shared namespace, like a
   notebook, inside a temporary working directory;
3. every intra-repo markdown link resolves to an existing file;
4. every public class, function, and method of the serving-facing
   packages (``repro.server``, ``repro.service``, ``repro.streaming``)
   carries a docstring.

The CI docs job runs exactly this module.
"""

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose docstring examples are executed.  Modules without any
#: doctest pass trivially; the ones in MUST_HAVE_EXAMPLES are additionally
#: required to carry at least one runnable example.
DOCTEST_MODULES = [
    "repro.core.engine",
    "repro.core.hashing",
    "repro.core.minsigtree",
    "repro.core.query",
    "repro.core.signatures",
    "repro.obs.exposition",
    "repro.obs.trace",
    "repro.server.app",
    "repro.server.coalescer",
    "repro.server.metrics",
    "repro.server.protocol",
    "repro.service.cache",
    "repro.service.sharded",
    "repro.storage.snapshot",
    "repro.streaming.ingestor",
    "repro.streaming.replay",
    "repro.streaming.window",
    "repro.traces.dataset",
    "repro.traces.events",
    "repro.traces.io",
]

MUST_HAVE_EXAMPLES = {
    "repro.core.engine",       # EngineConfig + TraceQueryEngine + save/load
    "repro.core.query",        # TopKSearcher
    "repro.obs.trace",         # Tracer + span trees
    "repro.server.app",        # TraceServer end-to-end (transport-free)
    "repro.server.coalescer",  # RequestCoalescer
    "repro.service.sharded",   # ShardedEngine
    "repro.streaming.ingestor",
    "repro.streaming.window",
}

#: Packages whose entire public surface must be docstring-covered: every
#: public module-level class and function, and every public method defined
#: on a public class (inherited members are the parent's responsibility).
DOCSTRING_COVERED_PACKAGES = [
    "repro.cluster", "repro.obs", "repro.scenarios", "repro.server", "repro.service",
    "repro.streaming",
]


def _docstring_covered_modules():
    modules = []
    for package_name in DOCSTRING_COVERED_PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            if not info.name.startswith("_"):
                modules.append(f"{package_name}.{info.name}")
    return modules


class TestDocstringCoverage:
    @pytest.mark.parametrize("module_name", _docstring_covered_modules())
    def test_public_api_is_docstring_covered(self, module_name):
        module = importlib.import_module(module_name)
        missing = []
        if not (module.__doc__ or "").strip():
            missing.append(module_name)
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module_name:
                continue  # re-exports are covered where they are defined
            if not (member.__doc__ or "").strip():
                missing.append(f"{module_name}.{name}")
            if inspect.isclass(member):
                for attr_name, attr in vars(member).items():
                    if attr_name.startswith("_"):
                        continue
                    if isinstance(attr, property):
                        target = attr.fget
                    elif isinstance(attr, (staticmethod, classmethod)):
                        target = attr.__func__
                    elif inspect.isfunction(attr):
                        target = attr
                    else:
                        continue  # data attributes, dataclass defaults, ...
                    if target is None or not (target.__doc__ or "").strip():
                        missing.append(f"{module_name}.{name}.{attr_name}")
        assert not missing, (
            "public API members without a docstring: " + ", ".join(sorted(missing))
        )

MARKDOWN_FILES = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))

_CODE_BLOCK = re.compile(r"```(\w[\w-]*)?\n(.*?)```", re.DOTALL)
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
        if module_name in MUST_HAVE_EXAMPLES:
            assert results.attempted > 0, (
                f"{module_name} is a documented public API and must carry at "
                "least one runnable docstring example"
            )


def python_blocks(path: Path):
    """Every fenced ``python`` block of a markdown file, in order."""
    text = path.read_text(encoding="utf-8")
    return [
        block
        for language, block in _CODE_BLOCK.findall(text)
        if language == "python"
    ]


class TestMarkdownExamples:
    @pytest.mark.parametrize(
        "path", MARKDOWN_FILES, ids=[p.relative_to(REPO_ROOT).as_posix() for p in MARKDOWN_FILES]
    )
    def test_python_blocks_execute(self, path, tmp_path, monkeypatch):
        blocks = python_blocks(path)
        if not blocks:
            pytest.skip(f"{path.name} has no python blocks")
        # Snapshot saves and the like land in a scratch directory.
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        for number, block in enumerate(blocks, start=1):
            try:
                exec(compile(block, f"{path.name}#block{number}", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure reporting
                pytest.fail(f"{path.name} python block #{number} failed: {exc!r}")

    def test_readme_carries_a_streaming_quickstart(self):
        blocks = python_blocks(REPO_ROOT / "README.md")
        assert any("EventIngestor" in block for block in blocks)


class TestMetricsTable:
    def test_table_lists_exactly_the_exported_families(self):
        """docs/OBSERVABILITY.md's table is the union of what
        ``metric_families`` emits on the three tiers -- no more, no less."""
        from repro import SpatialHierarchy, TraceDataset
        from repro.cluster.frontend import cluster_tier
        from repro.server import TraceServer, worker_tier
        from repro.server.metrics import metric_families
        from repro.service.sharded import ShardedEngine

        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^\| `(repro_\w+)", text, re.MULTILINE))

        emitted = set()
        for tier in (
            lambda engine: {},
            lambda engine: worker_tier(engine, workers=1),
            lambda engine: cluster_tier(engine, replication=1),
        ):
            dataset = TraceDataset(SpatialHierarchy.regular([2, 2]), horizon=24)
            for index in range(8):
                dataset.add_record(f"e{index}", f"u2_{index % 2}_0", time=index, duration=2)
            engine = ShardedEngine(dataset, num_shards=2, num_hashes=16, seed=5).build()
            with TraceServer(engine, **tier(engine)) as server:
                emitted |= {family.name for family in metric_families(server.handle_stats()[1])}
        assert documented == emitted


class TestMarkdownLinks:
    @pytest.mark.parametrize(
        "path", MARKDOWN_FILES, ids=[p.relative_to(REPO_ROOT).as_posix() for p in MARKDOWN_FILES]
    )
    def test_intra_repo_links_resolve(self, path):
        text = path.read_text(encoding="utf-8")
        broken = []
        for target in _MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (path.parent / relative).exists():
                broken.append(target)
        assert not broken, f"broken intra-repo links in {path.name}: {broken}"
