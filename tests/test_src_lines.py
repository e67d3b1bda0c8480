"""scripts/src_lines.py: the line counts of src/pidnet by kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kinds_add_up_to_each_module(capsys):
    src_lines = load_src_lines()
    modules = sorted((ROOT / "src" / "pidnet").glob("*.py"))
    total = 0
    for path in modules:
        text = path.read_text(encoding="utf-8")
        counts = src_lines.classify(text)
        assert sum(counts.values()) == len(text.splitlines()), path.name
        assert counts["code"] > 0, path.name
        total += len(text.splitlines())
    src_lines.main([])
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(modules) + 2
    assert rows[-1].split()[:2] == ["total", str(total)]


def test_each_kind_on_a_small_module():
    text = (
        '"""Module docstring.\n'
        "\n"
        '"""\n'
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "y = '''a string\n"
        "\n"
        "that is code'''\n"
        "\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        "    return (x,\n"
        "            y)\n"
    )
    assert load_src_lines().classify(text) == {"code": 7, "docstring": 3, "comment": 1, "blank": 4}


def test_change_from_a_base_by_module_and_kind(tmp_path, capsys):
    new, base = tmp_path / "new", tmp_path / "base"
    new.mkdir()
    base.mkdir()
    (base / "a.py").write_text("x = 1\n")
    (new / "a.py").write_text('"""Doc."""\n\nx = 1  # one\n')
    (new / "b.py").write_text("y = 2\n")
    (base / "c.py").write_text("# gone\nz = 3\n")
    load_src_lines().main([str(new), "--base", str(base)])
    rows = capsys.readouterr().out.split("\n\n")[1].splitlines()
    assert rows[0] == f"change from {base}"
    assert [row.split() for row in rows[2:]] == [
        ["a.py", "+2", "+0", "+1", "+0", "+1"],
        ["b.py", "+1", "+1", "+0", "+0", "+0"],
        ["c.py", "-2", "-1", "+0", "-1", "+0"],
        ["total", "+1", "+0", "+1", "-1", "+1"],
    ]
