"""``tools/mutate.py`` prints each mutant's edit so that its two sides differ,
runs a module's own tests before the whole suite, and removes its checkout
copy when it is stopped by SIGTERM."""

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


def _runs(module, failing, tmp_path, monkeypatch):
    """The test paths of each pytest run that ``_run`` makes for ``module``
    in a checkout with a few test files, where the runs of ``failing``
    fail, and its outcome."""
    tool = _tool()
    for name in ("test_cli.py", "test_mlmc.py"):
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "tests" / name).touch()
    runs = []

    def run(command, cwd, **kwargs):
        runs.append(command[-1])
        failed = command[-1] in failing
        return subprocess.CompletedProcess(
            command, int(failed), f"FAILED {command[-1]}::test_x - x\n" if failed else "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    return runs, tool._run(tmp_path, None, module)


def test_a_mutant_runs_its_own_tests_first(tmp_path, monkeypatch):
    runs, outcome = _runs("mlmc", {"tests/test_mlmc.py"}, tmp_path, monkeypatch)
    assert (runs, outcome) == (["tests/test_mlmc.py"],
                               "killed by tests/test_mlmc.py::test_x")


def test_the_whole_suite_runs_when_the_own_tests_pass(tmp_path, monkeypatch):
    runs, outcome = _runs("mlmc", {"tests"}, tmp_path, monkeypatch)
    assert (runs, outcome) == (["tests/test_mlmc.py", "tests"], "killed by tests::test_x")
    runs, outcome = _runs("mlmc", set(), tmp_path, monkeypatch)
    assert (runs, outcome) == (["tests/test_mlmc.py", "tests"], "open")


def test_config_and_runner_are_tested_by_the_cli_tests(tmp_path, monkeypatch):
    for module in ("config", "runner", "cli"):
        runs, _ = _runs(module, set(), tmp_path, monkeypatch)
        assert runs == ["tests/test_cli.py", "tests"], module


def test_a_module_without_a_test_file_runs_the_suite(tmp_path, monkeypatch):
    assert _runs("streams", set(), tmp_path, monkeypatch)[0] == ["tests"]
    assert _runs(None, set(), tmp_path, monkeypatch)[0] == ["tests"]  # the baseline
