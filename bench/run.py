#!/usr/bin/env python3
"""credmask benchmark: per-command latency on three seeded workloads.

    python3 bench/run.py --workload cli-profile --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps each credmask module's public
functions and reports per-layer metrics from the recorded spans; it first
runs a third of its time unwrapped, so it also reports the tracing overhead.
Run from the root of a checkout; fixtures go to ``.bench_work/`` and traces
and detailed results to ``.bench_out/``. The last line of standard output
is one JSON object; the exit code is 0 only when every output check passed.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-profile", "engine-bulk", "biometric")
SETUP_REPEATS = 3
TRACE_BASELINE_SHARE = 1 / 3
IMPORT_REPEATS = 5
KDF_REPEATS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import credmask.cli
    except ImportError as exc:
        print(f"error: cannot import credmask from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(credmask.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: credmask was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    from stats import median, tail

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cls = {w.name: w for w in (workloads.CliProfile, workloads.EngineBulk,
                               workloads.Biometric)}[args.workload]
    checks = workloads.Checks()
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            wl, metrics, samples = measure_traced(cls, work, args, checks, trace_path)
        else:
            wl, metrics, samples = measure(cls, work, args, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = checks.failed == 0 and checks.attempted > 0
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": checks.attempted,
        "failed": checks.failed, "fail_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.reasons[:20], "metrics": metrics, "samples": samples,
        "commands": {cmd: {"samples": len(s), "p50_ms": median(s) if s else None,
                           "tail": tail(s)}
                     for cmd, s in wl.samples.items()},
        "details": wl.details,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")

    print_table(detail)
    for reason in checks.reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


# -- the untraced run: end-to-end metrics ------------------------------------------

def measure(cls, work: Path, args, checks):
    from stats import median
    setups = []
    wl = None
    for k in range(SETUP_REPEATS):
        if wl is not None:
            shutil.rmtree(wl.workdir)
        start = time.perf_counter()
        wl = cls(work / f"setup{k}", args.seed, checks)
        wl.setup()
        setups.append(time.perf_counter() - start)
    deadline = time.perf_counter() + args.seconds
    wl.begin()
    run_cycles(wl, deadline, checks)
    metrics = {"setup_s": metric(median(setups), "s")}
    for cmd, samples in wl.samples.items():
        metrics[f"{cmd}_p50_ms"] = metric(median(samples), "ms")
    metrics["peak_rss_mib"] = metric(wl.peak_rss_mib(), "MiB")
    samples = {name: len(wl.samples[name.split("_")[0]]) for name in metrics
               if name.endswith("_p50_ms")}
    samples.update(setup_s=len(setups), peak_rss_mib=1)
    return wl, metrics, samples


def run_cycles(wl, deadline: float, checks) -> list[float]:
    """Cycles until the deadline (at least one); returns each cycle's command time."""
    totals = []
    while True:
        times = wl.cycle()
        for cmd, ms in times.items():
            wl.samples[cmd].append(ms)
        totals.append(sum(times.values()))
        if checks.failed or time.perf_counter() >= deadline:
            return totals


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- the traced run: per-layer metrics ------------------------------------------------

def measure_traced(cls, work: Path, args, checks, trace_path: Path):
    from tracing import Tracer, read_records, write_records
    tracer = Tracer()
    tracer.install()
    wl = cls(work / "setup0", args.seed, checks, tracer)
    with tracer.operation(0, "setup"):
        wl.setup()
    tracer.uninstall()

    wl.tracer = None
    start = time.perf_counter()
    baseline = run_cycles(wl, start + args.seconds * TRACE_BASELINE_SHARE, checks)

    tracer.install()
    wl.tracer, wl.traced = tracer, True
    wl.samples = {cmd: [] for cmd in wl.samples}
    wl.rows_moved = 0
    first_op = wl._op + 1
    wl.begin()
    traced = run_cycles(wl, start + args.seconds, checks)
    tracer.uninstall()
    wl.traced = False
    ops = set(range(first_op, wl._op + 1))

    records = tracer.records()
    child = wl.workdir / "child-trace.jsonl"
    if child.exists():
        with open(child, encoding="utf-8") as fh:
            records += [json.loads(line) for line in fh]
    trace_path.unlink(missing_ok=True)
    write_records(trace_path, records)
    spans, counts = read_records(trace_path)

    metrics = layer_metrics(spans, counts, ops, wl)
    metrics.update(program_metrics(wl))
    metrics["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(baseline), "ratio")
    # per-layer figures are averages over the traced cycles
    return wl, metrics, {name: len(traced) for name in metrics}


def layer_metrics(spans, counts, ops: set[int], wl) -> dict:
    from tracing import layer_totals
    from workloads import COMMANDS, Biometric
    totals = layer_totals(spans, ops)
    commands = {s.op: s.name.removeprefix("cmd.") for s in spans
                if s.op in ops and s.parent is None and s.name.startswith("cmd.")}
    # bio-eval, enrollment and impostor attempts stay out of per-command counts
    owner_ops = {op for op, cmd in commands.items() if cmd in COMMANDS}
    mask_ops = {op for op, cmd in commands.items() if cmd == "mask"}
    in_owner_commands = layer_totals(spans, owner_ops)
    in_masks = layer_totals(spans, mask_ops)
    trips = max(len(mask_ops), 1)

    def calls(name, per=trips, within=totals):
        return metric(within[name].calls / per if name in within else 0.0, "count")

    def ms(name, own=False):
        t = totals.get(name)
        if t is None or not t.calls:
            return metric(0.0, "ms")
        return metric(1000.0 * (t.self_s if own else t.total_s) / t.calls, "ms")

    def counted(name):
        return sum(n for (op, key), n in counts.items() if op in ops and key == name)

    seal = totals.get("crypto.seal")
    listed = totals.get("store.list_logins")
    m = {
        "crypto.derive_key.calls": calls("crypto.derive_key", per=max(len(owner_ops), 1),
                                         within=in_owner_commands),
        "crypto.seal.bytes": metric(seal.counts["bytes"] / seal.calls if seal else 0.0, "B"),
        "store.list_logins.calls": calls("store.list_logins"),
        "store.list_logins.rows_per_row_moved": metric(
            listed.counts["rows"] / wl.rows_moved if listed and wl.rows_moved else 0.0, "ratio"),
        "store.list_logins.self_ms": ms("store.list_logins", own=True),
        "store.insert_rows.self_ms": ms("store.insert_rows", own=True),
        "store.delete_rows.self_ms": ms("store.delete_rows", own=True),
        "store.open_store.calls": calls("store.open_store", within=in_masks),
        "store.check_not_busy.calls": calls("store.check_not_busy", within=in_masks),
        "wire.encode_cell_value.calls": metric(counted("wire.encode_cell_value") / trips,
                                               "count"),
        "vault.open_vault.self_ms": ms("vault.open_vault", own=True),
        "vault.commit.self_ms": ms("vault.commit", own=True),
        "vault.commit.calls": calls("vault.commit"),
        "vault.fsync.calls": metric(counted("vault.fsync") / trips, "count"),
        "vault.bytes_per_user_byte": metric(wl.vault_ratio or 0.0, "ratio"),
        "engine.plan_mask.self_ms": ms("engine.plan_mask", own=True),
        "engine.apply_mask.self_ms": ms("engine.apply_mask", own=True),
        "engine.apply_unmask.self_ms": ms("engine.apply_unmask", own=True),
        "engine.status.self_ms": ms("engine.status", own=True),
        "auth.verify_fingerprint.ms": ms("auth.verify_fingerprint"),
        "minutiae.load_template.ms": ms("minutiae.load_template"),
        "evaluation.score_dataset.ms": ms("evaluation.score_dataset"),
        "evaluation.evaluate.ms": ms("evaluation.evaluate"),
    }
    setup = layer_totals(spans, {0}).get("evaluation.generate_synthetic")
    m["evaluation.generate_synthetic.ms"] = metric(
        1000.0 * setup.total_s / setup.calls if setup else 0.0, "ms")
    by_size: dict[int, list[float]] = {n: [] for n in Biometric.SIZES}
    for s in spans:
        if s.op in ops and s.name == "matching.match_templates" and s.counts["n"] in by_size:
            by_size[s.counts["n"]].append(1000.0 * (s.end - s.start))
    for n, times in by_size.items():
        m[f"matching.match_templates.ms.n{n}"] = metric(
            statistics.fmean(times) if times else 0.0, "ms")
    return m


def program_metrics(wl) -> dict:
    """Measured apart from the cycles: imports, the default KDF, matcher memory."""
    from credmask import crypto, matching
    from workloads import Biometric
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timing = ("import time; t = time.perf_counter(); import credmask.cli; "
              "print((time.perf_counter() - t) * 1000.0)")
    imports = [float(subprocess.run([sys.executable, "-c", timing], env=env, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_REPEATS)]
    probe = ("import sys, credmask.cli; credmask.cli.main(sys.argv[1:]); "
             "print(int('numpy' in sys.modules))")
    listed = subprocess.run([sys.executable, "-c", probe, "list", "--store", str(wl.any_store())],
                            env=env, check=True, capture_output=True, text=True)
    kdf = []
    for _ in range(KDF_REPEATS):
        start = time.perf_counter()
        crypto.derive_key(b"benchmark kdf probe", crypto.KdfParams.generate())
        kdf.append(1000.0 * (time.perf_counter() - start))
    m = {
        "cli.import_ms": metric(statistics.median(imports), "ms"),
        "cli.numpy_loaded": metric(float(listed.stdout.split()[-1]), "flag"),
        "crypto.derive_key_default_ms": metric(statistics.median(kdf), "ms"),
    }
    peaks = {n: 0.0 for n in Biometric.SIZES}
    for n, template, probe_template in wl.matcher_pairs():
        tracemalloc.start()
        try:
            matching.match_templates(template, probe_template)
            peaks[n] = tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
        finally:
            tracemalloc.stop()
    for n, peak in peaks.items():
        m[f"matching.match_templates.peak_mib.n{n}"] = metric(peak, "MiB")
    return m


# -- output ------------------------------------------------------------------------------

def print_table(detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"attempted {detail['attempted']}  failed {detail['failed']}  "
          f"fail_frac {detail['fail_frac']:.4f}")
    for name, m in detail["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.4f} {m['unit']:<6} "
              f"samples {detail['samples'][name]}")
    for cmd, c in detail["commands"].items():
        if not c["samples"]:
            continue
        line = f"  {cmd:<8} samples {c['samples']:>4}  p50 {c['p50_ms']:10.2f} ms"
        if c["tail"] is not None:
            line += f"  p{c['tail'][0]:.1f} {c['tail'][1]:10.2f} ms"
        print(line)
    for key, value in detail["details"].items():
        print(f"  {key:<42} {value:>14.4f}")


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is each one's own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
