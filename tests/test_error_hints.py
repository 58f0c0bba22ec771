"""Static check of the error hints: a message that ends in "use <name>"
must name a public function of erwlab, since that name is the caller's
only way past the error (SeriesOverflowError points to the log routes)."""

import ast
import pathlib
import re

import erwlab

_SRC = pathlib.Path(erwlab.__file__).parent
_HINT = re.compile(r"\buse ([A-Za-z_]\w*)$")


def _hinted_names():
    names = set()
    for path in _SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                for part in ast.walk(node):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        names.update(_HINT.findall(part.value))
    return names


def test_hinted_functions_are_public():
    names = _hinted_names()
    assert {"prabhakar_ln", "limit_moment_ln"} <= names
    for name in names:
        assert callable(getattr(erwlab, name, None)), f"error hint names missing erwlab.{name}"
