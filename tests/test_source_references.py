"""Every module-level function and class in src/mpdqc is used by the program.

A definition counts as used when its name appears in src/ or perfbench/
outside its own definition, as a name, an attribute or a whole string
(the benchmark's tracer patches functions by name), or when mpdqc.__all__
exports it. Code that only the tests call belongs in tests/reference.py.
"""
import ast
from pathlib import Path

import mpdqc

ROOT = Path(__file__).resolve().parent.parent


def definitions(package: Path) -> list[tuple[str, str]]:
    """(module.name, name) of every top-level function and class in the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{path.stem}.{node.name}", node.name))
    return found


def references(*roots: Path) -> set[str]:
    """Every name, attribute and string constant in the Python files under the roots."""
    names = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_in_the_package_is_referenced():
    used = references(ROOT / "src", ROOT / "perfbench") | set(mpdqc.__all__)
    unused = [where for where, name in definitions(ROOT / "src" / "mpdqc") if name not in used]
    assert unused == [], f"defined in src/mpdqc but used only by tests, or not at all: {unused}"


def test_only_the_session_records_messages():
    # Transcript.record and Transcript.defer are reached only through
    # protocol.Session, so each message variant and each deferred entry has
    # one writer, which the real run and the coalition simulator both call
    outside = []
    for path in sorted((ROOT / "src" / "mpdqc").glob("*.py")):
        tree = ast.parse(path.read_text())
        session = [node for node in tree.body if path.stem == "protocol" and isinstance(node, ast.ClassDef) and node.name == "Session"]
        inside = {id(node) for node in ast.walk(session[0])} if session else set()
        outside += [f"{path.stem}.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in ("record", "defer") and id(node) not in inside]
    assert outside == [], f"transcript writes outside protocol.Session: {outside}"
