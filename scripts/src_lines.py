#!/usr/bin/env python3
"""Count the lines of each ``src/pidnet`` module by kind: code, docstring,
comment and blank, with the totals.

A line is code if it holds any token of a statement other than a docstring,
a docstring line if it is not empty and lies in a string that stands alone
as a statement, a comment line if it holds only a comment, and blank
otherwise. A line with code and a comment is code, so deleting comments
does not reduce the code count.

With ``--base BASE``, a second table gives the change from the modules in
BASE to those in DIR, by module and kind: the delta a change to the package
reports.

Usage:
    python scripts/src_lines.py [DIR] [--base BASE]    (DIR default: src/pidnet)
"""

import argparse
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


def count_dir(root: Path) -> dict[str, dict]:
    """Line counts by kind of each module in root, by file name."""
    return {path.name: classify(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}


def print_table(rows: dict[str, dict], sign: str = "") -> None:
    """One row per module, its lines and the count of each kind, then the totals;
    ``sign="+"`` prints every number signed."""
    rows = {**rows, "total": {name: sum(counts[name] for counts in rows.values()) for name in KINDS}}
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{name:>11}" for name in KINDS))
    for module, counts in rows.items():
        print(f"{module:<16}{sum(counts.values()):>{sign}7}"
              + "".join(f"{counts[name]:>{sign}11}" for name in KINDS))


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Line counts of a package's modules by kind.")
    parser.add_argument("dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "pidnet")
    parser.add_argument("--base", type=Path, help="also print the change from the modules in BASE")
    args = parser.parse_args(argv)
    rows = count_dir(args.dir)
    print_table(rows)
    if args.base is not None:
        base, zero = count_dir(args.base), dict.fromkeys(KINDS, 0)
        print(f"\nchange from {args.base}")
        print_table({module: {name: rows.get(module, zero)[name] - base.get(module, zero)[name]
                              for name in KINDS}
                     for module in sorted(rows.keys() | base.keys())}, sign="+")


if __name__ == "__main__":
    main(sys.argv[1:])
