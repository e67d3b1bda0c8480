#!/usr/bin/env python3
"""Count the lines of each ``src/pidnet`` module by kind: code, docstring,
comment and blank, with the totals.

A line is code if it holds any token of a statement other than a docstring,
a docstring line if it is not empty and lies in a string that stands alone
as a statement, a comment line if it holds only a comment, and blank
otherwise. A line with code and a comment is code, so deleting comments
does not reduce the code count.

Usage:
    python scripts/src_lines.py [DIR]    (default: src/pidnet)
"""

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def classify(text: str) -> dict:
    """Line counts of one module's source, by kind."""
    lines = io.StringIO(text).readlines()
    kind = ["blank"] * len(lines)
    rank = {name: k for k, name in enumerate(reversed(KINDS))}
    # INDENT and DEDENT dropped, so a docstring's previous token is a NEWLINE or an NL
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type not in (tokenize.INDENT, tokenize.DEDENT)]
    for k, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            name = "comment"
        elif (tok.type == tokenize.STRING
              and (k == 0 or tokens[k - 1].type in (tokenize.NEWLINE, tokenize.NL))
              and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            name = "docstring"
        else:
            name = "code"
        for row in range(tok.start[0], tok.end[0] + 1):
            if name == "docstring" and not lines[row - 1].strip():
                continue  # a blank line inside a docstring stays blank
            if rank[name] > rank[kind[row - 1]]:
                kind[row - 1] = name
    return {name: kind.count(name) for name in KINDS}


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pidnet"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{name:>11}" for name in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = classify(path.read_text(encoding="utf-8"))
        for name in KINDS:
            total[name] += counts[name]
        print(f"{path.name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[name]:>11}" for name in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}" + "".join(f"{total[name]:>11}" for name in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
