"""Count the code lines of the cavmem modules and of named functions.

    python tools/code_lines.py                      # every module, and the total
    python tools/code_lines.py memory memory._integrate_batch

A code line is a source line that holds a token other than a comment, a
line break or indentation, and that is not part of a docstring (the string
that opens a module, a class or a function).  A name is a module of
`src/cavmem`, or a module and a function or class in it, dotted
(`memory._free_evolution`, `memory.MemoryConfig.zeta`); a function's count
includes its nested functions.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cavmem"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> set:
    """The numbers of the code lines of `source`."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstrings


def count(source: str, path: tuple = ()) -> int:
    """The code lines of `source`, or of the function or class that the
    names `path` reach from its top level, one name per nesting level."""
    lines = code_lines(source)
    if not path:
        return len(lines)
    body = ast.parse(source).body
    for name in path:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            raise KeyError(f"no function or class {'.'.join(path)!r}")
        body = node.body
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return len({k for k in lines if first <= k <= node.end_lineno})


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    if not names:
        modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
        counts = {m: count((PACKAGE / f"{m}.py").read_text()) for m in modules}
        for m in modules:
            print(f"{counts[m]:6d}  {m}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    for name in names:
        module, *path = name.split(".")
        source = PACKAGE / f"{module}.py"
        if not source.is_file():
            print(f"no module {module!r} in {PACKAGE}", file=sys.stderr)
            return 2
        try:
            n = count(source.read_text(), tuple(path))
        except KeyError as err:
            print(f"{module}: {err.args[0]}", file=sys.stderr)
            return 2
        print(f"{n:6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
