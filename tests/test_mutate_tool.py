"""``tools/mutate.py`` prints each mutant's edit so that its two sides differ."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_shows_an_edit_past_the_width():
    source = "np.asarray(model.payoff(states), dtype=float).reshape(len(states), -1, n_l)"
    before, after = _tool()._short(source, source.replace("-1", "-2"))
    assert before != after
    assert before.endswith("reshape(len(states), -1, n_l)")
    assert after.endswith("reshape(len(states), -2, n_l)")
    assert len(before) == len(after) == 3 + 70


def test_short_leaves_short_texts_unchanged():
    assert _tool()._short("n - 1", "n + 1") == ("n - 1", "n + 1")
    assert _tool()._short("raise ValueError('x')", "pass") == ("raise ValueError('x')", "pass")
