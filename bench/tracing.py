"""Spans recorded around calls into credmask's modules, from outside them.

The program has no tracing of its own, so the benchmark wraps the public
functions of each module by monkeypatching, and only in the traced run.
A span records its name, start, end, parent span and the id of the
operation (one CLI command) it belongs to, plus a few integer counts such as
rows returned or bytes sealed. Arguments and results are never recorded, so
no passphrase, hostname, cell value or minutia can reach a span. Spans stay
in memory and are written out once, when the run ends.

Functions called hundreds of thousands of times per command
(``encode_cell_value``, ``os.fsync``) get a counter instead of a span.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def as_record(self) -> dict:
        return {"kind": "span", "id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                "counts": self.counts}


def _rows(args, result):
    return {"rows": len(result)}


def _sealed_bytes(args, result):
    return {"bytes": len(args[2])}


def _template_size(args, result):
    return {"n": len(args[0])}


# (module, attribute, span name, counts taken from the call). A name that is
# imported into several modules is patched in each, under one span name.
SPAN_PATCHES = (
    ("credmask.store", "open_store", "store.open_store", None),
    ("credmask.store", "check_not_busy", "store.check_not_busy", None),
    ("credmask.engine", "check_not_busy", "store.check_not_busy", None),
    ("credmask.store", "StoreHandle.list_logins", "store.list_logins", _rows),
    ("credmask.store", "StoreHandle.insert_rows", "store.insert_rows", None),
    ("credmask.store", "StoreHandle.delete_rows", "store.delete_rows", None),
    ("credmask.crypto", "derive_key", "crypto.derive_key", None),
    ("credmask.crypto", "seal", "crypto.seal", _sealed_bytes),
    ("credmask.crypto", "open_sealed", "crypto.open_sealed", None),
    ("credmask.vault", "create_vault", "vault.create_vault", None),
    ("credmask.vault", "open_vault", "vault.open_vault", None),
    ("credmask.vault", "VaultFile.commit", "vault.commit", None),
    ("credmask.engine", "plan_mask", "engine.plan_mask", None),
    ("credmask.engine", "apply_mask", "engine.apply_mask", None),
    ("credmask.engine", "plan_unmask", "engine.plan_unmask", None),
    ("credmask.engine", "apply_unmask", "engine.apply_unmask", None),
    ("credmask.engine", "status", "engine.status", None),
    ("credmask.auth", "verify_passphrase", "auth.verify_passphrase", None),
    ("credmask.auth", "verify_fingerprint", "auth.verify_fingerprint", None),
    ("credmask.auth", "match_templates", "matching.match_templates", _template_size),
    ("credmask.evaluation", "match_templates", "matching.match_templates", _template_size),
    ("credmask.minutiae", "load_template", "minutiae.load_template", None),
    ("credmask.evaluation", "generate_synthetic", "evaluation.generate_synthetic", None),
    ("credmask.evaluation", "score_dataset", "evaluation.score_dataset", None),
    ("credmask.evaluation", "evaluate", "evaluation.evaluate", None),
)

COUNTER_PATCHES = (
    ("credmask.store", "encode_cell_value", "wire.encode_cell_value"),
    ("credmask.engine", "encode_cell_value", "wire.encode_cell_value"),
    ("os", "fsync", "vault.fsync"),
)

# Span ids of a child process start here times its operation id, so they
# never collide with the parent's when both traces are merged.
CHILD_ID_STRIDE = 1_000_000


class Tracer:
    """In-memory spans and counters; records only inside an operation."""

    def __init__(self, id_base: int = 0):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[Span] = []
        self._next_id = id_base + 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(self._next_id, self._stack[-1].id if self._stack else None,
                    self.op, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int, name: str):
        """Span of one command; everything below it carries its operation id."""
        outer, self.op = self.op, op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.op = outer

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        op, self.op = self.op, None
        try:
            yield
        finally:
            self.op = op

    def wrap(self, name: str, fn, measure=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counts["raised"] = 1
                raise
            finally:
                self._close(span)
            if measure is not None:
                span.counts.update(measure(args, result))
            return result
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.op is not None:
                self.counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for module, attr, name, measure in SPAN_PATCHES:
            owner, leaf = _resolve(importlib.import_module(module), attr)
            self._patch(owner, leaf, self.wrap(name, getattr(owner, leaf), measure))
        for module, attr, name in COUNTER_PATCHES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- output -------------------------------------------------------------

    def records(self) -> list[dict]:
        out = [span.as_record() for span in self.spans]
        out += [{"kind": "count", "op": op, "name": name, "calls": calls}
                for (op, name), calls in sorted(self.counts.items())]
        return out


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def write_records(path: str | os.PathLike, records: list[dict]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(path: str | os.PathLike) -> tuple[list[Span], dict[tuple[int, str], int]]:
    spans: list[Span] = []
    counts: dict[tuple[int, str], int] = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "span":
                spans.append(Span(rec["id"], rec["parent"], rec["op"], rec["name"],
                                  rec["start"], rec["end"], rec["counts"]))
            else:
                counts[(rec["op"], rec["name"])] += rec["calls"]
    return spans, counts


# -- analysis -----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.end - span.start - covered
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def layer_totals(spans: list[Span], ops: set[int]) -> dict[str, LayerTotals]:
    """Calls, wall time, self time and summed counts per span name over ``ops``."""
    own = self_times(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        if span.op not in ops:
            continue
        t = totals[span.name]
        t.calls += 1
        t.total_s += span.end - span.start
        t.self_s += own[span.id]
        for key, value in span.counts.items():
            t.counts[key] += value
    return totals
