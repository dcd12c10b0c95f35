"""Import-closure guard: `import bellgate.cli` must not pull in more.

Every fresh CLI process pays for each module it imports, so a new
dependency (logging, numpy, scipy, ...) or a new bellgate module would
raise start-up cost unnoticed.  The child runs with -S, so the site
machinery preloads nothing and the new-module set is the whole closure.
A module-level import that nothing reads is refused too, in the package
and in the tests: it still costs set-up time on every import, and
deletions tend to leave such imports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: stdlib modules `python -S -c "import bellgate.cli"` loaded on Python
#: 3.11 before the exact fraction-free kernel; the sre_* names are their
#: Python 3.10 spelling
ALLOWED = {
    "__future__", "_ast", "_collections", "_collections_abc", "_decimal",
    "_functools", "_json", "_opcode", "_operator", "_sre", "_stat",
    "_typing", "_weakrefset", "argparse", "ast", "collections",
    "collections.abc", "contextlib", "copy", "copyreg", "dataclasses",
    "decimal", "dis", "enum", "fractions", "functools", "genericpath",
    "gettext", "importlib", "importlib._bootstrap",
    "importlib._bootstrap_external", "importlib.machinery", "inspect",
    "itertools", "json", "json.decoder", "json.encoder", "json.scanner",
    "keyword", "linecache", "math", "numbers", "opcode", "operator", "os",
    "os.path", "posixpath", "re", "re._casefix", "re._compiler",
    "re._constants", "re._parser", "reprlib", "stat", "token", "tokenize",
    "types", "typing", "typing.io", "typing.re", "warnings", "weakref",
    "sre_compile", "sre_constants", "sre_parse",
}

BELLGATE = {"bellgate", "bellgate.cli", "bellgate.feasibility",
            "bellgate.ontology", "bellgate.qubit", "bellgate.scalar",
            "bellgate.simplex", "bellgate.transform"}

PROBE = """
import json, sys
before = set(sys.modules)
import bellgate.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def new_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return set(json.loads(proc.stdout))


def test_cli_import_closure_is_pinned():
    loaded = new_modules()
    assert {m for m in loaded if m.split(".")[0] == "bellgate"} == BELLGATE
    extra = {m for m in loaded if m.split(".")[0] != "bellgate"} - ALLOWED
    assert not extra, f"new modules in the import closure: {sorted(extra)}"


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it is loaded anywhere in the tree,
    annotations included; __future__ imports bind nothing.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import List, Optional\n"
              "def f(x: Optional[int]) -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(2, "system"), (3, "List")]


def test_every_module_level_import_is_used():
    found = {}
    for path in (sorted((SRC / "bellgate").glob("*.py"))
                 + sorted(TESTS.glob("*.py"))):
        unused = unused_imports(path.read_text())
        if unused:
            found[f"{path.parent.name}/{path.name}"] = unused
    assert not found, f"unused module-level imports: {found}"
