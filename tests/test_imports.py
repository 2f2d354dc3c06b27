"""The unused-import gate: every imported name is read or exported."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_imports  # noqa: E402


def test_the_tree_has_no_unused_imports():
    roots = [REPO_ROOT / root for root in check_imports.DEFAULT_ROOTS]
    assert check_imports.check(roots) == []


def test_the_gate_reports_only_names_nobody_reads(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from json import dumps, loads as parse\n"
        "from itertools import *\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "def f():\n"
        "    return xml.dom, parse\n",
        encoding="utf-8",
    )
    assert check_imports.unused_imports(module) == [
        (2, "os"), (3, "osp"), (5, "dumps"),
    ]
    assert check_imports.check([tmp_path]) == [
        "%s:%d: %s imported but unused" % (module, line, name)
        for line, name in ((2, "os"), (3, "osp"), (5, "dumps"))
    ]
