"""Import-closure guard: `import bellgate.cli` must not pull in more.

Every fresh CLI process pays for each module it imports, so a new
dependency (logging, numpy, scipy, ...) or a new bellgate module would
raise start-up cost unnoticed.  The child runs with -S, so the site
machinery preloads nothing and the new-module set is the whole closure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
