"""The layering gate: topk/plans/stats must stay behind the backend seam."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_layering  # noqa: E402


def _fake_tree(tmp_path, source, package="topk"):
    """A minimal src tree with one guarded module containing ``source``."""
    root = tmp_path / "src"
    for name in check_layering.GUARDED_PACKAGES:
        pkg = root / "repro" / name
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
    for required in check_layering.REQUIRED_GUARDED_MODULES:
        (root / "repro" / required).write_text("", encoding="utf-8")
    (root / "repro" / package / "offender.py").write_text(
        source, encoding="utf-8"
    )
    return root


class TestGate:
    def test_real_tree_is_clean(self):
        assert check_layering.check(SRC_ROOT) == []

    def test_cli_exit_code_zero(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_layering.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout


class TestDetection:
    def test_banned_module_import(self, tmp_path):
        root = _fake_tree(tmp_path, "import repro.ir.index\n")
        violations = check_layering.check(root)
        assert len(violations) == 1
        assert "repro.ir.index" in violations[0]

    def test_banned_from_module_import(self, tmp_path):
        root = _fake_tree(
            tmp_path, "from repro.xmltree.document import Document\n"
        )
        assert len(check_layering.check(root)) == 1

    def test_banned_name_from_anywhere(self, tmp_path):
        root = _fake_tree(
            tmp_path, "from repro.ir import InvertedIndex\n", package="plans"
        )
        violations = check_layering.check(root)
        assert len(violations) == 1
        assert "InvertedIndex" in violations[0]

    def test_banned_name_inside_function_is_still_flagged(self, tmp_path):
        root = _fake_tree(
            tmp_path,
            "def helper():\n"
            "    from repro.backend.memory import InMemoryBackend\n"
            "    return InMemoryBackend\n",
            package="stats",
        )
        assert len(check_layering.check(root)) == 1

    def test_seam_imports_are_allowed(self, tmp_path):
        root = _fake_tree(
            tmp_path,
            "from repro.backend import as_backend\n"
            "from repro.backend.kernels import structural_join_ids\n",
        )
        assert check_layering.check(root) == []

    def test_storage_layer_upward_import_is_flagged(self, tmp_path):
        root = _fake_tree(tmp_path, "")
        backend = root / "repro" / "backend"
        backend.mkdir(parents=True)
        (backend / "__init__.py").write_text("", encoding="utf-8")
        (backend / "sharded.py").write_text(
            "from repro.topk.dpo import DPO\n", encoding="utf-8"
        )
        violations = check_layering.check(root)
        assert len(violations) == 1
        assert "query-side" in violations[0]

    def test_strategy_code_cannot_import_the_coordinator(self, tmp_path):
        root = _fake_tree(
            tmp_path, "from repro.sharding import ShardedQueryContext\n"
        )
        violations = check_layering.check(root)
        assert len(violations) == 1
        assert "coordinator" in violations[0]
        # Only repro.topk is held to it: plans/stats never could wrap one.
        assert check_layering.check(
            _fake_tree(tmp_path / "other", "import repro.sharding\n", "plans")
        ) == []

    def test_coordinator_cannot_import_a_strategy(self, tmp_path):
        root = _fake_tree(tmp_path, "")
        sharding = root / "repro" / "sharding.py"
        sharding.write_text(
            "from repro.topk.base import QueryContext\n", encoding="utf-8"
        )
        assert check_layering.check(root) == []
        sharding.write_text(
            "from repro.topk.base import QueryContext\n"
            "from repro.topk.dpo import DPO\n"
            "from repro.topk import SSO\n",
            encoding="utf-8",
        )
        violations = check_layering.check(root)
        assert len(violations) == 2
        assert all("strategy" in violation for violation in violations)

    @pytest.mark.parametrize("module", ["sharding.py", "engine.py"])
    def test_coordinator_and_engine_cannot_import_the_eval_cache(
            self, tmp_path, module):
        root = _fake_tree(tmp_path, "")
        path = root / "repro" / module
        path.write_text("from repro.topk.base import QueryContext\n", encoding="utf-8")
        assert check_layering.check(root) == []
        path.write_text(
            "from repro.plans.eval_cache import EvaluationCache\n"
            "from repro.plans import EvaluationCache\n"
            "import repro.plans.eval_cache\n",
            encoding="utf-8",
        )
        violations = check_layering.check(root)
        assert len(violations) == 3
        assert all("evaluation cache" in violation for violation in violations)

    def test_guarded_code_cannot_import_sharded_backend(self, tmp_path):
        root = _fake_tree(
            tmp_path, "from repro.backend.sharded import ShardedBackend\n"
        )
        assert len(check_layering.check(root)) == 1

    def test_missing_required_guarded_module_is_flagged(self, tmp_path):
        root = _fake_tree(tmp_path, "")
        (root / "repro" / "plans" / "lowering.py").unlink()
        violations = check_layering.check(root)
        assert len(violations) == 1
        assert "plans/lowering.py" in violations[0]

    def test_data_layer_imports_only_itself_errors_and_stdlib(self, tmp_path):
        root = _fake_tree(tmp_path, "")
        xmltree = root / "repro" / "xmltree"
        xmltree.mkdir(parents=True)
        (xmltree / "storage.py").write_text(
            "import zlib\n"
            "from repro.errors import CorruptStorageError\n"
            "from repro.xmltree.document import Document\n"
            "from .node import XMLNode\n",
            encoding="utf-8",
        )
        assert check_layering.check(root) == []
        (xmltree / "storage.py").write_text(
            "from repro.obs.metrics import REGISTRY\n"
            "from ..backend import diskfmt\n"
            "def load():\n"
            "    import numpy\n",
            encoding="utf-8",
        )
        violations = check_layering.check(root)
        assert len(violations) == 3
        assert all("data layer" in violation for violation in violations)

    def test_only_the_entry_points_import_the_events_module(self, tmp_path):
        root = _fake_tree(tmp_path, "")
        repro = root / "repro"
        (repro / "obs").mkdir()
        (repro / "obs" / "slowlog.py").write_text(
            "from repro.obs.events import off, on\n", encoding="utf-8"
        )
        for emitter in check_layering.EVENT_EMITTERS:
            (repro / emitter).write_text(
                "from repro.obs import events\n", encoding="utf-8"
            )
        assert check_layering.check(root) == []
        (repro / "cache.py").write_text(
            "from repro.obs import events\n", encoding="utf-8"
        )
        (repro / "backend").mkdir()
        (repro / "backend" / "disk.py").write_text(
            "def append():\n"
            "    import repro.obs.events\n",
            encoding="utf-8",
        )
        violations = check_layering.check(root)
        assert len(violations) == 2
        assert all("repro.obs.events" in violation for violation in violations)

    def test_module_getattr_shim_is_exempt(self, tmp_path):
        root = _fake_tree(
            tmp_path,
            "def __getattr__(name):\n"
            "    from repro.backend.stats import DocumentStatistics\n"
            "    return DocumentStatistics\n",
            package="stats",
        )
        assert check_layering.check(root) == []
