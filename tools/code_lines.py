"""Count the code lines of Python files: lines that are not blank,
comment-only or part of a docstring.

    python3 tools/code_lines.py src/hetnoma/*.py

prints each file's count and then the total.  A docstring is the first
statement of a module, class or function when it is a string; every line
of it is left out.  A line counts if any token other than a comment,
newline or indentation touches it, so a statement spread over several
lines counts each of them.
"""

import ast
import io
import sys
import tokenize

_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of the Python source text."""
    docstrings = {line for node in ast.walk(ast.parse(source))
                  if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None
                  for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {line for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type not in _LAYOUT
            for line in range(token.start[0], token.end[0] + 1)}
    return len(code - docstrings)


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:8d} {path}")
    print(f"{total:8d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
