import pathlib

from cosetlab import rng


def test_default_rng_is_called_only_in_the_seed_module():
    # every seed reaches a generator through rng.make_rng, so a second seed
    # scheme cannot come back unnoticed
    src = pathlib.Path(rng.__file__).resolve().parent
    callers = sorted(p.name for p in src.glob("*.py") if "default_rng(" in p.read_text())
    assert callers == ["rng.py"]
