import ast
import pathlib

from cosetlab import rng


def test_default_rng_is_called_only_in_the_seed_module():
    # every seed reaches a generator through rng.make_rng, so a second seed
    # scheme cannot come back unnoticed
    src = pathlib.Path(rng.__file__).resolve().parent
    callers = sorted(p.name for p in src.glob("*.py") if "default_rng(" in p.read_text())
    assert callers == ["rng.py"]


def test_no_generator_choice_outside_the_draw_rule():
    # every finite-law draw goes through rng.inverse_cdf; docstrings may still
    # name Generator.choice as the rule it reproduces
    src = pathlib.Path(rng.__file__).resolve().parent
    callers = sorted(p.name for p in src.glob("*.py")
                     for node in ast.walk(ast.parse(p.read_text()))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "choice")
    assert callers == []
