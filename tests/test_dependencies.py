"""The declared runtime dependencies are exactly what the library imports.

``pyproject.toml``'s ``[project] dependencies`` must name every
third-party top-level module that a file under ``src/repro`` imports
(anywhere in the file, lazily or not), and nothing else: a test-only
reference such as networkx stays out of ``src/``, and a dependency the
code stopped using leaves the list.
"""

import ast
import os
import re
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def declared_dependencies() -> set:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def imported_third_party() -> set:
    found = set()
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_runtime_dependencies_are_what_src_imports():
    assert declared_dependencies() == imported_third_party()
