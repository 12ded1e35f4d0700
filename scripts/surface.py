"""Print the size of the program's surface as one JSON object.

- ``src_lines``: lines of every module in src/semimatch (``cat src/semimatch/*.py | wc -l``);
- ``settable_values``: each field of a dataclass plus each defaulted
  parameter of a public function or method (a name without a leading
  underscore, or a dunder such as ``__init__``); functions nested in
  functions are not counted.

Usage: python3 scripts/surface.py
"""
import ast
import glob
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def settable_values(tree: ast.AST) -> int:
    """Dataclass fields and defaulted public parameters in the module body and its classes."""
    count = 0
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                count += sum(isinstance(st, ast.AnnAssign) for st in node.body)
            count += settable_values(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def surface() -> dict[str, int]:
    lines = values = 0
    for path in sorted(glob.glob(os.path.join(REPO, "src", "semimatch", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines += source.count("\n")
        values += settable_values(ast.parse(source))
    return {"src_lines": lines, "settable_values": values}


if __name__ == "__main__":
    print(json.dumps(surface()))
