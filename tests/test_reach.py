"""The reach gate: every src module is reached from an entry point."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_reach  # noqa: E402


def _tree(tmp_path, files):
    """A ``src``/``benchmarks`` pair under ``tmp_path`` holding ``files``."""
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    (tmp_path / "benchmarks").mkdir(exist_ok=True)
    return tmp_path / "src", tmp_path / "benchmarks"


FILES = {
    "src/repro/__init__.py": "from repro.engine import Engine\n",
    "src/repro/engine.py": (
        "import repro.pkg\n"
        "from repro.pkg import used\n"
        "def lazy():\n"
        "    from repro import helper\n"
        "    return repro.pkg.attr\n"
    ),
    "src/repro/helper.py": "from . import relative\n",
    "src/repro/relative.py": "",
    "src/repro/pkg/__init__.py": (
        "from repro.pkg.a import used\n"
        "from repro.pkg.b import spare\n"
        "from repro.pkg.d import attr\n"
    ),
    "src/repro/pkg/a.py": "used = 1\n",
    "src/repro/pkg/b.py": "spare = 2\n",
    "src/repro/pkg/c.py": "",
    "src/repro/pkg/d.py": "attr = 3\n",
    "src/repro/bench_only.py": "",
    "benchmarks/bench_x.py": "from repro.bench_only import *\n",
}


def test_the_tree_passes_with_exactly_the_five_allowlisted_modules():
    assert check_reach.check(REPO_ROOT / "src", REPO_ROOT / "benchmarks") == []
    assert sorted(check_reach.ALLOWLIST) == [
        "datasets", "query.closure", "query.containment", "query.minimize",
        "relax.space",
    ]
    assert all(reason for reason in check_reach.ALLOWLIST.values())


def test_imports_anywhere_reach_through_package_inits(tmp_path):
    src, benchmarks = _tree(tmp_path, FILES)
    _, seen = check_reach.reached(src, benchmarks)
    assert sorted(seen) == [
        "repro.bench_only", "repro.engine", "repro.helper", "repro.pkg.a",
        "repro.pkg.d", "repro.relative",
    ]


def test_unreached_and_reexport_only_modules_are_flagged(tmp_path):
    src, benchmarks = _tree(tmp_path, FILES)
    assert check_reach.check(src, benchmarks, allowlist={}) == [
        "%s: repro.pkg.b is reached by no entry point" % (src / "repro/pkg/b.py"),
        "%s: repro.pkg.c is reached by no entry point" % (src / "repro/pkg/c.py"),
    ]


def test_stale_allowlist_entries_are_flagged(tmp_path):
    src, benchmarks = _tree(tmp_path, FILES)
    allowlist = {"pkg.b": "kept", "pkg.c": "kept", "pkg.a": "now used",
                 "gone": "deleted"}
    assert check_reach.check(src, benchmarks, allowlist) == [
        "allowlist: repro.gone no longer exists",
        "allowlist: repro.pkg.a is reached now",
    ]
