"""The README library example runs as written, and the package root exports exactly its names."""

import ast
import re
from pathlib import Path

import chainqec

README = Path(__file__).resolve().parent.parent / "README.md"


def _example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "the README holds one python example"
    return blocks[0]


def test_readme_example_decodes_the_single_z_error():
    namespace = {}
    exec(compile(_example(), str(README), "exec"), namespace)
    assert namespace["report"].success_probability >= 1 - 1e-9


def test_package_root_exports_the_readme_names():
    imported = set()
    for node in ast.walk(ast.parse(_example())):
        if isinstance(node, ast.ImportFrom) and node.module == "chainqec":
            imported.update(alias.name for alias in node.names)
    assert sorted(chainqec.__all__) == sorted(imported | {"__version__"})
    for name in chainqec.__all__:
        assert hasattr(chainqec, name)
