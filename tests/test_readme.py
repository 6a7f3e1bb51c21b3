"""The README examples hold: the library example runs as written, the package
root exports exactly its names, and every CLI line parses."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import chainqec
from chainqec.cli import build_parser

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


def test_readme_cli_lines_parse():
    block = re.search(r"## CLI\n+```\n(.*?)```", README.read_text(), flags=re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "chainqec" for argv in lines)
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])  # exits with status 2 on a flag the parser lacks
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[1] for argv in lines} == set(sub.choices)
