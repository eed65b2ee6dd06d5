"""``reach_scan.py --check`` decides from the scan's result, faked here, so no
run starts."""

import pytest

import reach_scan


@pytest.fixture
def check(monkeypatch):
    """main(["--check"]) with the given functions never run and allowed."""
    def run(unrun, allowed):
        monkeypatch.setattr(reach_scan, "scan", lambda: sorted(unrun))
        monkeypatch.setattr(reach_scan, "ALLOWED", {name: "kept" for name in allowed})
        return reach_scan.main(["--check"])
    return run


def test_nothing_unrun_and_nothing_allowed_passes(check):
    assert check([], []) == 0


def test_an_unrun_function_fails_unless_allowed(check, capsys):
    assert check(["matching._greedy_pairs"], []) == 1
    assert "never ran and not allowed: matching._greedy_pairs" in capsys.readouterr().err
    assert check(["matching._greedy_pairs"], ["matching._greedy_pairs"]) == 0


def test_an_allowed_function_that_now_runs_fails(check, capsys):
    assert check([], ["matching._greedy_pairs"]) == 1
    assert "allowed but gone or now run: matching._greedy_pairs" in capsys.readouterr().err


def test_an_allowed_function_no_longer_defined_fails(check, capsys):
    assert check(["matching._invert"], ["matching._invert"]) == 1
    assert "allowed but gone or now run: matching._invert" in capsys.readouterr().err


def test_without_check_only_prints(monkeypatch, capsys):
    monkeypatch.setattr(reach_scan, "scan", lambda: ["matching._greedy_pairs"])
    monkeypatch.setattr(reach_scan, "ALLOWED", {"matching._invert": "kept"})
    assert reach_scan.main([]) == 0
    assert capsys.readouterr().out == "matching._greedy_pairs\n"

