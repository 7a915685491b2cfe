import ast
import re
from pathlib import Path

from qonash.errors import DomainError

SRC = Path(__file__).resolve().parents[1] / "src" / "qonash"


def test_codes_in_use_match_raises():
    # DomainError's "Codes in use" list names exactly the literal codes of
    # the DomainError("CODE", ...) calls in the package: no code goes
    # unlisted, and none stays listed once its last raise is gone.
    listed = set(re.findall(r"[A-Z][A-Z_]+", DomainError.__doc__.split("Codes in use:")[1]))
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "DomainError"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                raised.add(node.args[0].value)
    assert listed == raised
