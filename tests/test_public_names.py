"""Every public function and class of the package is used by it or documented.

A public module-level name that no other line of ``src/patcol`` mentions is
called only from outside the package, so README must name it as library API.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "patcol"


def test_public_names_are_used_or_documented():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    lines = [line for text in sources.values() for line in text.splitlines()]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
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
