"""Self-tests of the benchmark: statistics, span arithmetic, tiny smoke runs.

    python3 -m pytest bench
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

import run  # noqa: E402
import workloads  # noqa: E402
from credmask import minutiae, store  # noqa: E402
from stats import tail  # noqa: E402
from tracing import Span, layer_totals, self_times  # noqa: E402


# -- the percentile and sample-count rule ----------------------------------------------

def test_no_tail_without_more_than_ten_samples():
    assert tail([]) is None
    assert tail([float(i) for i in range(10)]) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert tail(samples) == (90.0, 90.0)
    percentile, value = tail(samples[::-1])  # order does not matter
    assert (percentile, value) == (90.0, 90.0)
    assert sum(s > value for s in samples) == 10


def test_tail_of_eleven_samples_is_the_smallest():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    percentile, value = tail(samples)
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11)


# -- self time on a hand-built span tree ---------------------------------------------------

def test_self_time_subtracts_what_children_cover():
    spans = [
        Span(1, None, 7, "cmd.mask", 0.0, 10.0),
        Span(2, 1, 7, "engine.plan_mask", 1.0, 4.0),
        Span(3, 2, 7, "store.list_logins", 2.0, 3.0),
        Span(4, 1, 7, "engine.apply_mask", 5.0, 9.0),
        Span(5, 4, 7, "vault.commit", 6.0, 7.5),
        Span(6, 4, 7, "store.delete_rows", 7.0, 8.0),  # overlaps its sibling
        Span(7, 4, 7, "engine.status", 8.5, 12.0),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0 - 2.0 - 0.5)
    assert own[5] == pytest.approx(1.5)


def test_layer_totals_keep_to_the_chosen_operations():
    spans = [
        Span(1, None, 1, "cmd.list", 0.0, 2.0),
        Span(2, 1, 1, "store.list_logins", 0.5, 1.5, {"rows": 20}),
        Span(3, None, 2, "cmd.list", 3.0, 5.0),
        Span(4, 3, 2, "store.list_logins", 3.5, 4.0, {"rows": 20}),
    ]
    totals = layer_totals(spans, {2})
    assert totals["store.list_logins"].calls == 1
    assert totals["store.list_logins"].total_s == pytest.approx(0.5)
    assert totals["store.list_logins"].counts["rows"] == 20
    assert totals["cmd.list"].self_s == pytest.approx(1.5)


# -- tiny smoke runs of each workload ----------------------------------------------------------

class TinyCli(workloads.CliProfile):
    HOSTS, ROWS, MASKED = 6, 20, 2


class TinyBulk(workloads.EngineBulk):
    HOSTS, ROWS, MASKED = 12, 60, 4


class TinyBio(workloads.Biometric):
    SIZES = (20,)
    EVAL_TEMPLATES = 6  # bio-eval pairs each template with 5 impostors


def secrets_of(wl) -> list[str]:
    """Passphrase, hostnames, text cells and minutia coordinates of a finished run."""
    found = [wl.passphrase]
    for path in wl.workdir.rglob("*.sqlite"):
        with store.open_store(path, store.READ_ONLY) as handle:
            for row in handle.list_logins():
                found.append(row.hostname)
                found += [v[1:].decode() for _, v in row.cells
                          if v is not None and v[:1] == b"t" and len(v) > 12]
    for path in wl.workdir.rglob("*.min"):
        for m in minutiae.load_template(path).minutiae:
            found += [repr(m.x), repr(m.y)]
    return found


@pytest.mark.parametrize("cls", [TinyCli, TinyBulk, TinyBio], ids=lambda c: c.name)
def test_smoke_untraced(cls, tmp_path):
    checks = workloads.Checks()
    args = argparse.Namespace(seed=3, seconds=0.1)
    wl, metrics, _ = run.measure(cls, tmp_path / "work", args, checks)
    assert checks.failed == 0, checks.reasons
    assert checks.attempted > 0
    assert list(metrics) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("cls", [TinyCli, TinyBulk, TinyBio], ids=lambda c: c.name)
def test_smoke_traced_leaks_no_secret(cls, tmp_path):
    checks = workloads.Checks()
    args = argparse.Namespace(seed=3, seconds=0.1)
    trace_path = tmp_path / "trace.jsonl"
    wl, metrics, _ = run.measure_traced(cls, tmp_path / "work", args, checks, trace_path)
    assert checks.failed == 0, checks.reasons
    assert sorted(metrics) == sorted(m["name"] for m in DECLARED["per_layer"])
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in DECLARED["per_layer"])
    assert metrics["store.list_logins.calls"]["value"] == 7.0
    assert metrics["crypto.derive_key.calls"]["value"] == 1.0
    assert metrics["vault.fsync.calls"]["value"] == 4.0
    assert metrics["vault.commit.calls"]["value"] == 2.0
    if cls is TinyBio:
        assert metrics["matching.match_templates.ms.n20"]["value"] > 0
        assert metrics["matching.match_templates.peak_mib.n20"]["value"] > 0

    published = trace_path.read_text() + json.dumps(metrics)
    secrets = secrets_of(wl)
    assert len(secrets) > 10
    leaked = [s for s in secrets if s in published]
    assert not leaked


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark fails fast and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-profile",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_declaration_keeps_to_the_format():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
