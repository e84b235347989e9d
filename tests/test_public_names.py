"""Every public function, class and class member of the package is used by it or documented.

A public module-level name that no other line of ``src/patcol`` mentions is
called only from outside the package, so README must name it as library API.
A public method or property of a public class is held to the same rule
through ``.name``: some other line of ``src/patcol`` reads it, or README
names it. The rule goes by name, so it cannot see a member that only tests
call when another class's member of the same name is used: one class's
``to_json_dict`` read only by tests passes, because others are read.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "patcol"


def _corpus() -> tuple[dict[str, str], list[str], str]:
    """Each module's source by file name, every line of the package, and README."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    lines = [line for text in sources.values() for line in text.splitlines()]
    return sources, lines, (ROOT / "README.md").read_text(encoding="utf-8")


def test_public_names_are_used_or_documented():
    sources, lines, readme = _corpus()
    checked, orphans = 0, []
    for name, text in sources.items():
        for node in ast.parse(text, name).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                checked += 1
                word = re.compile(rf"\b{node.name}\b")
                # One mention is the definition's own line.
                if sum(1 for line in lines if word.search(line)) < 2 and not word.search(readme):
                    orphans.append(f"{name}:{node.lineno}: {node.name}")
    assert checked and orphans == []


def test_public_members_are_used_or_documented():
    sources, lines, readme = _corpus()
    checked, orphans = 0, []
    for name, text in sources.items():
        for cls in ast.parse(text, name).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    checked += 1
                    member = re.compile(rf"\.{node.name}\b")
                    if not any(member.search(line) for line in lines) and not member.search(readme):
                        orphans.append(f"{name}:{node.lineno}: {cls.name}.{node.name}")
    assert checked and orphans == []
