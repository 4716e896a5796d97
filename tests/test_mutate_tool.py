"""``tools/mutate.py`` prints each mutant's edit so that its two sides differ,
and removes its checkout copy when it is stopped by SIGTERM."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
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


def test_sigterm_removes_the_checkout_copy(tmp_path):
    # SIGTERM's default action would leave the whole copy under $TMPDIR
    tool = subprocess.Popen([sys.executable, str(TOOL), "mlmc:summarize"],
                            env=dict(os.environ, TMPDIR=str(tmp_path)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("mutate-*/checkout")):
            assert time.monotonic() < deadline and tool.poll() is None
            time.sleep(0.05)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        tool.kill()
    assert not list(tmp_path.glob("mutate-*"))
