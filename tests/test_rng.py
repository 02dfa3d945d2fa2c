import ast
import pathlib

import numpy as np
import pytest

from cosetlab import crng_sampler as crng
from cosetlab import gf_linalg
from cosetlab import decision_theory as dt
from cosetlab import rng
from cosetlab import sources_channels as sc
from cosetlab.gf_linalg import FieldSpec, GfVector, LinearMap, word_table


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


def test_the_inverse_cdf_rule_is_only_in_the_seed_module():
    # no other module searches or counts a CDF against uniforms, so a second
    # copy of rng.inverse_cdf cannot come back unnoticed
    src = pathlib.Path(rng.__file__).resolve().parent
    callers = sorted(p.name for p in src.glob("*.py")
                     for node in ast.walk(ast.parse(p.read_text()))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and (node.func.attr == "searchsorted"
                          or node.func.attr == "count_nonzero" and node.args
                          and isinstance(node.args[0], ast.Compare)
                          and any(isinstance(op, (ast.LtE, ast.GtE)) for op in node.args[0].ops)))
    assert callers == ["rng.py", "rng.py"]


def test_mass_tolerance_is_defined_only_in_the_seed_module():
    # every finite-law check reads its sum tolerance from rng, so a third
    # tolerance or negative-entry rule cannot come back unnoticed
    src = pathlib.Path(rng.__file__).resolve().parent
    definers = sorted(p.name for p in src.glob("*.py")
                      for node in ast.walk(ast.parse(p.read_text()))
                      if isinstance(node, ast.Assign)
                      for target in node.targets
                      if isinstance(target, ast.Name) and "MASS_TOL" in target.id)
    assert definers == ["rng.py", "rng.py"]


def test_product_law_is_the_one_word_weight_rule():
    # every word's weight under per-position letter laws is rng.product_law,
    # so a second gather-and-reduce cannot come back unnoticed
    src = pathlib.Path(rng.__file__).resolve().parent
    nodes = [(p.name, node) for p in src.glob("*.py")
             for node in ast.walk(ast.parse(p.read_text()))]
    assert [name for name, node in nodes if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "prod"] == []
    assert [name for name, node in nodes if isinstance(node, ast.FunctionDef)
            and "product_law" in node.name] == ["rng.py"]
    # and the table form of the rule, too, lives only in rng
    assert sorted((name, node.name) for name, node in nodes if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("product_")) == [
        ("rng.py", "product_blocks"), ("rng.py", "product_law"), ("rng.py", "product_table")]


def test_the_exhaustive_sums_take_the_table_form():
    # every word of the table is weighed by product_blocks or product_table,
    # never by a per-position gather over a listed word table
    src = pathlib.Path(rng.__file__).resolve().parent
    bodies = {(p.name, node.name): node for p in src.glob("*.py")
              for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.FunctionDef)}
    for key in [("channel_codec.py", "_exact_error"), ("sw_codec.py", "_lost_mass"),
                ("sw_codec.py", "_joint_error")]:
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(bodies[key]) if isinstance(node, ast.Call)}
        assert "product_law" not in called, key
        assert called & {"product_blocks", "product_table", "_lost_mass"}, key


def test_the_sampler_walk_and_coset_law_are_called_only_in_the_sampler():
    # every constrained draw goes through crng_sampler's one draw body, so a
    # second walk or exact draw cannot come back unnoticed
    src = pathlib.Path(rng.__file__).resolve().parent
    callers = sorted({p.name for p in src.glob("*.py")
                      for node in ast.walk(ast.parse(p.read_text()))
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in ("_walk", "_member_weights")})
    assert callers == ["crng_sampler.py"]


def _fold_per_word(letters, words, op):
    """The product law as a per-word Python loop over float64 letters."""
    out = np.empty(letters.shape[:-2] + (len(words),))
    for batch in np.ndindex(*letters.shape[:-2]):
        for i, word in enumerate(words.tolist()):
            acc = float(letters[batch + (0, word[0])])
            for k, a in enumerate(word[1:], start=1):
                letter = float(letters[batch + (k, a)])
                acc = acc * letter if op is np.multiply else acc + letter
            out[batch + (i,)] = acc
    return out


@pytest.mark.parametrize("op", [np.multiply, np.add])
@pytest.mark.parametrize("q, n, batch", [(2, 5, ()), (3, 3, ()), (2, 4, (3,)), (3, 1, (2,))])
def test_product_law_matches_a_per_word_fold(q, n, batch, op):
    gen = np.random.default_rng(q * 100 + n)
    letters = gen.random(batch + (n, q))
    letters[..., -1, 0] = 0.0  # a zero letter, or a -inf log-letter under np.add
    if op is np.add:
        with np.errstate(divide="ignore"):
            letters = np.log2(letters)
    words = word_table(q, n)
    got = rng.product_law(letters, words, op)
    assert got.shape == batch + (q ** n,)
    assert np.array_equal(got, _fold_per_word(letters, words, op))
    assert (got == (0.0 if op is np.multiply else -np.inf)).any()


@pytest.mark.parametrize("op", [np.multiply, np.add])
@pytest.mark.parametrize("q, n", [(2, 5), (3, 4)])
def test_product_law_with_one_word_list_per_row_equals_each_row_alone(q, n, op):
    # a (rows, m, n) word list folds each row's letters over that row's words:
    # the floats of one call per row, -inf log-letters included
    rows, m = 6, 9
    letters = _letters(q, n, (rows,), op)
    words = np.random.default_rng(q).integers(0, q, (rows, m, n))
    words[:, 0, -1] = 0  # every row meets the zero letter
    got = rng.product_law(letters, words, op)
    assert got.shape == (rows, m)
    assert np.array_equal(got, np.stack([rng.product_law(letters[r], words[r], op)
                                         for r in range(rows)]))
    assert (got[:, 0] == (0.0 if op is np.multiply else -np.inf)).all()


def _letters(q, n, batch, op):
    """Random (batch..., n, q) letters with one zero letter, as log2 under np.add."""
    letters = np.random.default_rng(q * 100 + n).random(batch + (n, q))
    letters[..., -1, 0] = 0.0
    if op is np.add:
        with np.errstate(divide="ignore"):
            letters = np.log2(letters)
    return letters


@pytest.mark.parametrize("op", [np.multiply, np.add])
@pytest.mark.parametrize("q, n, batch", [(2, 6, ()), (3, 3, (2,)), (5, 2, (2, 3)), (2, 1, (4,)),
                                         (5, 3, ())])
def test_product_table_matches_a_per_word_fold(q, n, batch, op):
    letters = _letters(q, n, batch, op)
    got = rng.product_table(letters, op)
    assert got.shape == batch + (q ** n,)
    assert np.array_equal(got, _fold_per_word(letters, word_table(q, n), op))
    assert (got == (0.0 if op is np.multiply else -np.inf)).any()


@pytest.mark.parametrize("op", [np.multiply, np.add])
# a sixteenth of each chunk holds 3, 10, 30 and 2048 words of the 4 rows: runs of
# 3, 9 and 27 words, and one run of all 243
@pytest.mark.parametrize("chunk", [16 * 12, 16 * 40, 16 * 120, 2 ** 17],
                         ids=["runs-of-3", "runs-of-9", "runs-of-27", "one-run"])
def test_product_blocks_cut_the_whole_table(monkeypatch, chunk, op):
    # blocks that split a run, span several, and a short last block; the second
    # split starts and ends inside runs of 3, 9 and 27 words
    letters = _letters(3, 5, (4,), op)
    whole = rng.product_table(letters, op)
    splits = [[0, 7, 8, 50, 200, 243], [0, 1, 13, 14, 40, 121, 134, 242, 243]]
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", chunk)
    for cuts in splits:
        blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        got = list(rng.product_blocks(letters, blocks, op))
        assert all(block.flags.c_contiguous for block in got)
        assert np.array_equal(np.concatenate(got, axis=-1), whole)
        # a second call, and two calls read in step, give the same floats: no
        # buffer carries values from one call into another
        assert all(np.array_equal(a, b) for a, b in
                   zip(got, rng.product_blocks(letters, blocks, op), strict=True))
        pairs = list(zip(rng.product_blocks(letters[::-1].copy(), blocks, op),
                         rng.product_blocks(letters, blocks, op), strict=True))
        assert np.array_equal(np.concatenate([b for b, _ in pairs], axis=-1), whole[::-1])
        assert all(np.array_equal(a, c) for a, (_, c) in zip(got, pairs))
    assert np.array_equal(rng.product_table(letters, op), whole)


_PARITY = LinearMap(FieldSpec(2), ((1, 1, 0), (0, 1, 1)))
_KERNEL = crng.ConstraintSet(((_PARITY, GfVector(FieldSpec(2), (0, 0))),))

# each entry point with a valid table: a bad copy of it must raise ValueError
_LAW_ENTRY_POINTS = {
    "channel": (sc.Channel, [[0.9, 0.1], [0.2, 0.8]]),
    "joint-source": (sc.JointSource, [[0.4, 0.1], [0.1, 0.4]]),
    "input-law": (lambda t: sc.joint_from_channel(t, sc.make_bsc(0.1)), [0.3, 0.7]),
    "decision-problem": (dt.DecisionProblem, [[0.4, 0.1], [0.1, 0.4]]),
    "decision-rule": (dt.DecisionRule, [[0.9, 0.1], [0.2, 0.8]]),
    "sampler-weights": (lambda t: crng.ConstrainedDistribution(t, _KERNEL),
                        [[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]]),
}


def _spoil(table, defect):
    t = np.array(table, dtype=np.float64)
    first = t.flat[0]
    if defect == "nan":
        t.flat[0] = np.nan
    elif defect == "inf":
        t.flat[0] = np.inf
    elif defect == "negative":  # the same row still sums to 1
        t.flat[0], t.flat[1] = -0.1, t.flat[1] + first + 0.1
    else:
        t *= 1.1
    return t


@pytest.mark.parametrize("defect", ["nan", "inf", "negative", "mass"])
@pytest.mark.parametrize("entry", sorted(_LAW_ENTRY_POINTS))
def test_every_law_entry_point_rejects_a_bad_table(entry, defect):
    build, table = _LAW_ENTRY_POINTS[entry]
    build(np.array(table))  # the valid table passes
    with pytest.raises(ValueError):
        build(_spoil(table, defect))


@pytest.mark.parametrize("snr", [np.nan, np.inf, -1.0])
def test_quantized_awgn_rejects_a_bad_snr(snr):
    with pytest.raises(ValueError, match="snr"):
        sc.make_quantized_awgn(snr, 4)


def test_checked_law_returns_a_read_only_float_copy():
    table = [[1, 0], [0, 1]]
    law = rng.checked_law(table, "identity", rows=True)
    assert law.dtype == np.float64 and not law.flags.writeable
    source = np.array([0.25, 0.75])
    assert not np.shares_memory(rng.checked_law(source, "law", ndim=1), source)
    with pytest.raises(ValueError, match="law must be 1-d"):
        rng.checked_law(np.zeros(0), "law", ndim=1)
