"""The package namespace: each public name is declared once, in its layer's
``__all__``, and the package re-exports the four layers' names. The
README's library example runs as written."""

from pathlib import Path

import decoyqkd
from decoyqkd import bounds, model, optimizer, simulator

LAYERS = (model, bounds, simulator, optimizer)


def test_all_is_the_layers_all():
    assert decoyqkd.__all__ == [name for layer in LAYERS for name in layer.__all__]


def test_every_listed_name_resolves():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(decoyqkd, name) is getattr(layer, name)


def test_readme_library_example_runs(capsys):
    """The first Python block of the README's "Library" section runs, so an
    idiom that the records no longer support fails here."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
