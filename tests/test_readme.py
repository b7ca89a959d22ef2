"""The README's library quickstart runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quickstart_prints_its_commented_outputs(capsys):
    code = _quickstart()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 5
    for out, comment in zip(printed, comments):
        if comment == "a small re-runnable violation":
            assert out.startswith("{'problem': Problem(agents=(")
        else:
            assert out == comment
