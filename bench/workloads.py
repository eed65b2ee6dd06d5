"""The three workloads: seeded fixtures, one measured cycle, output checks.

Every workload drives the real CLI the way one owner at a terminal would:
a single closed-loop client that issues the next command only after the
previous one returned. Vaults use the light KDF profile (1 MiB, one
iteration) so that the deliberate Argon2id cost, which is measured apart,
cannot hide a regression elsewhere.

A cycle is one mask/unmask round trip with a ``list`` and a ``status``
beside it; it yields one latency sample per command. After every cycle the
store's canonical dump must equal the dump taken before the first mask, and
the sibling key-store digest must be unchanged.
"""

from __future__ import annotations

import base64
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from credmask import cli, crypto, evaluation, minutiae, store, vault

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

COMMANDS = ("list", "mask", "status", "unmask")
LIGHT_KDF = dict(memory_bytes=1024 * 1024, iterations=1)
KEYSTORE_BYTES = 16 * 1024
COMMAND_TIMEOUT_S = 120
# Criterion 8 of the acceptance suite bounds the synthetic EER by this.
EER_CEILING = 0.10


class Checks:
    """Attempted and failed operations; a failure carries no secret, only a reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


# -- fixtures --------------------------------------------------------------------

def make_hosts(rng: random.Random, count: int) -> list[str]:
    hosts: list[str] = []
    seen: set[str] = set()
    while len(hosts) < count:
        label = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=9))
        if label not in seen:
            seen.add(label)
            hosts.append(f"{label}.example.com")
    return hosts


def make_store(directory: Path, rng: random.Random, hosts: list[str],
               total_rows: int) -> tuple[Path, dict[str, int]]:
    """A canonical-schema store with uneven, seeded rows per host.

    Every host gets one row; the rest are spread by log-normal weights, and
    rows of one host are scattered over the id range as in a real profile.
    """
    weights = [rng.lognormvariate(0.0, 0.75) for _ in hosts]
    owners = list(hosts) + rng.choices(hosts, weights=weights, k=total_rows - len(hosts))
    rng.shuffle(owners)
    rows = []
    for row_id, host in enumerate(owners, start=1):
        rows.append(store.canonical_login_row(
            row_id, host,
            encryptedUsername=base64.b64encode(rng.randbytes(48)).decode(),
            encryptedPassword=base64.b64encode(rng.randbytes(64)).decode(),
            guid="{%032x}" % rng.getrandbits(128),
        ))
    path = directory / "logins.sqlite"
    store.init_fixture(path, rows).close()
    (directory / "key3.db").write_bytes(rng.randbytes(KEYSTORE_BYTES))
    counts: dict[str, int] = {}
    for host in owners:
        counts[host] = counts.get(host, 0) + 1
    return path, counts


def make_vault(path: Path, passphrase: str) -> None:
    vault.create_vault(path, passphrase, crypto.KdfParams.generate(**LIGHT_KDF)).close()


def canonical_dump(path: Path) -> bytes:
    with store.open_store(path, store.READ_ONLY) as handle:
        return handle.dump_canonical()


def keystore_digest(directory: Path) -> bytes:
    return store.keystore_digest(directory / "key3.db").digest


# -- a fixture directory: one store, its key store and its vault --------------------

class Profile:
    def __init__(self, directory: Path, store_path: Path, host_counts: dict[str, int]):
        self.directory = directory
        self.store_path = store_path
        self.vault_path = directory / "vault.cmv"
        self.host_counts = host_counts
        self.dump = canonical_dump(store_path)
        self.keystore = keystore_digest(directory)

    def args(self) -> list[str]:
        return ["--store", str(self.store_path), "--vault", str(self.vault_path)]

    def cell_bytes(self, hosts) -> int:
        wanted = set(hosts)
        with store.open_store(self.store_path, store.READ_ONLY) as handle:
            return sum(len(value) for row in handle.list_logins() if row.hostname in wanted
                       for _, value in row.cells if value is not None)


# -- the workloads ---------------------------------------------------------------------

class Workload:
    """Base: command runners, checks and the per-command samples."""

    name = ""
    subprocess_commands = False

    def __init__(self, workdir: Path, seed: int, checks: Checks, tracer=None):
        self.workdir = workdir
        self.seed = seed
        self.checks = checks
        self.tracer = tracer
        self.traced = False  # wrappers active for the commands run now
        rng = random.Random(f"passphrase-{seed}")
        self.passphrase = f"bench-{rng.getrandbits(96):024x}"
        self.rng = random.Random(f"cycles-{seed}")
        self.samples: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
        self.rows_moved = 0
        self.vault_ratio: float | None = None
        self.details: dict[str, object] = {}
        self._op = 0
        workdir.mkdir(parents=True, exist_ok=True)

    # -- hooks for the workloads -------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Work done once per measured run, before the first cycle."""

    def cycle(self) -> dict[str, float]:
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.subprocess_commands else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0

    def any_store(self) -> Path:
        raise NotImplementedError

    def matcher_pairs(self) -> list:
        """(n, enrolled template, genuine probe) per probe size the workload matches."""
        return []

    # -- running commands ------------------------------------------------------------

    def run(self, command: str, argv: list[str], expect: int = 0,
            passphrase: bool = True) -> tuple[float, str]:
        """Run one CLI command with the passphrase on a pipe; returns (ms, stdout)."""
        read_fd, write_fd = os.pipe()
        os.write(write_fd, (self.passphrase + "\n").encode())
        os.close(write_fd)
        argv = [str(a) for a in argv]
        if passphrase:
            argv += ["--passphrase-fd", str(read_fd)]
        self._op += 1
        op = self._op
        scope = (self.tracer.operation(op, f"cmd.{command}") if self.tracer is not None
                 else nullcontext())
        try:
            with scope:
                start = time.perf_counter()
                if self.subprocess_commands:
                    code, out = self._run_subprocess(op, argv, read_fd)
                else:
                    code, out = self._run_in_process(argv)
                ms = (time.perf_counter() - start) * 1000.0
        finally:
            os.close(read_fd)
        self.checks.record(code == expect, f"{command}: exit {code}, expected {expect}")
        return ms, out

    def _run_in_process(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def _run_subprocess(self, op: int, argv: list[str], read_fd: int) -> tuple[int, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        if self.traced:
            cmd = [sys.executable, str(BENCH / "tracecli.py"), *argv]
            env["BENCH_OP"] = str(op)
            env["BENCH_TRACE_OUT"] = str(self.workdir / "child-trace.jsonl")
        else:
            cmd = [sys.executable, "-m", "credmask", *argv]
        proc = subprocess.run(cmd, pass_fds=(read_fd,), capture_output=True, text=True,
                              env=env, cwd=self.workdir, timeout=COMMAND_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    # -- shared steps --------------------------------------------------------------------

    def round_trip(self, profile: Profile, hosts: list[str], order: tuple[str, ...],
                   probe: Path | None = None, before_unmask=None) -> dict[str, float]:
        """mask ``hosts``, then unmask all, with list and status where ``order`` puts them.

        ``before_unmask`` runs untimed between the owner's last command and
        the unmask, with the hosts masked.
        """
        masked = len(hosts)
        live = len(profile.host_counts) - masked
        rows = sum(profile.host_counts[h] for h in hosts)
        if self.traced and self.vault_ratio is None:
            with self.paused():
                user_bytes = profile.cell_bytes(hosts)
        times = {}
        for command in order:
            if command == "list":
                state_masked = masked if order.index("list") > order.index("mask") else 0
                ms, out = self.run("list", ["list", *profile.args(), "--format", "json-lines"])
                self.check_list(out, profile, state_masked)
            elif command == "mask":
                ms, out = self.run("mask", ["mask", *profile.args(), "--hosts", ",".join(hosts)])
                self.checks.record(out.startswith(f"masked {masked} host(s); mode: masked"),
                                   "mask: unexpected output")
                if self.traced and self.vault_ratio is None:
                    self.vault_ratio = profile.vault_path.stat().st_size / user_bytes
            elif command == "status":
                ms, out = self.run("status", ["status", *profile.args()])
                lines = out.splitlines()
                self.checks.record(
                    bool(lines) and lines[0] == "mode: masked"
                    and f"live hosts: {live}" in lines and "keystore: ok" in lines,
                    "status: unexpected output")
            else:
                if before_unmask is not None:
                    before_unmask()
                argv = ["unmask", *profile.args(), "--all"]
                if probe is not None:
                    argv += ["--fingerprint", str(probe)]
                ms, out = self.run("unmask", argv)
                self.checks.record(
                    out.rstrip().endswith(f"restored {masked} host(s); mode: normal"),
                    "unmask: unexpected output")
            times[command] = ms
        with self.paused():
            self.checks.record(canonical_dump(profile.store_path) == profile.dump,
                               "round trip: store dump differs from the pre-mask dump")
            self.checks.record(keystore_digest(profile.directory) == profile.keystore,
                               "round trip: key-store digest changed")
        self.rows_moved += 2 * rows
        return times

    def check_list(self, out: str, profile: Profile, masked: int) -> None:
        try:
            entries = [json.loads(line) for line in out.splitlines()]
            ok = (len(entries) == len(profile.host_counts)
                  and sum(e["rows"] for e in entries) == sum(profile.host_counts.values())
                  and sum(e["state"] == "masked" for e in entries) == masked)
        except (ValueError, KeyError, TypeError):
            ok = False
        self.checks.record(ok, "list: unexpected output")


class ProfileWorkload(Workload):
    """One seeded profile; each cycle masks a fresh seeded choice of hosts."""

    HOSTS = ROWS = MASKED = 0
    ORDER: tuple[str, ...] = ()

    def setup(self) -> None:
        rng = random.Random(f"fixture-{self.seed}")
        self.hosts = make_hosts(rng, self.HOSTS)
        path, counts = make_store(self.workdir, rng, self.hosts, self.ROWS)
        make_vault(self.workdir / "vault.cmv", self.passphrase)
        self.profile = Profile(self.workdir, path, counts)
        # warm-up: compiles bytecode, imports everything, reads the whole store
        ms, out = self.run("list", ["list", *self.profile.args(), "--format", "json-lines"])
        self.check_list(out, self.profile, 0)

    def cycle(self) -> dict[str, float]:
        hosts = self.rng.sample(self.hosts, self.MASKED)
        return self.round_trip(self.profile, hosts, self.ORDER)

    def any_store(self) -> Path:
        return self.profile.store_path


class CliProfile(ProfileWorkload):
    """A real-size profile, every command a fresh ``python -m credmask``."""

    name = "cli-profile"
    subprocess_commands = True
    HOSTS, ROWS, MASKED = 50, 500, 5
    ORDER = ("list", "mask", "status", "unmask")


class EngineBulk(ProfileWorkload):
    """20k rows over 1,000 hosts, larger than SQLite's default page cache; in-process."""

    name = "engine-bulk"
    HOSTS, ROWS, MASKED = 1000, 20000, 500
    ORDER = ("mask", "status", "list", "unmask")


class Biometric(Workload):
    """Tiny stores behind vaults gated by policy ``both`` with a fingerprint enrolled.

    One cycle is a rotation over every probe size and enrolled template, so
    a sample is the mean per command over the rotation; one impostor probe
    per rotation, of rotating size, must be refused without any write.
    """

    name = "biometric"
    SIZES = (20, 40, 60, 80)
    TEMPLATES = 2
    HOSTS, ROWS = 10, 25
    ORDER = ("mask", "status", "list", "unmask")
    EVAL_TEMPLATES = 10

    def setup(self) -> None:
        rng = random.Random(f"fixture-{self.seed}")
        self.steps: list[tuple[int, Profile, Path, Path]] = []
        for n in self.SIZES:
            # no deletions, so every probe holds exactly n minutiae
            records = evaluation.generate_synthetic(
                self.seed, self.TEMPLATES, n, deletion_rate=0.0,
                probes_per_template=1, impostors_per_template=1)
            for k, record in enumerate(records):
                directory = self.workdir / f"n{n}-t{k}"
                directory.mkdir()
                hosts = make_hosts(rng, self.HOSTS)
                path, counts = make_store(directory, rng, hosts, self.ROWS)
                profile = Profile(directory, path, counts)
                make_vault(profile.vault_path, self.passphrase)
                enrolled, genuine, impostor = (directory / f"{role}.min" for role in
                                               ("enrolled", "genuine", "impostor"))
                minutiae.save_template(record.template, enrolled)
                minutiae.save_template(record.genuine_probes[0], genuine)
                minutiae.save_template(record.impostor_probes[0], impostor)
                self.run("auth", ["auth", "enroll-fingerprint", "--vault", profile.vault_path,
                                  "--template", enrolled])
                self.run("auth", ["auth", "set-policy", "both", "--vault", profile.vault_path])
                self.steps.append((n, profile, genuine, impostor))
        self.rotation = 0
        self._step(0, impostor=True)  # warm-up on the smallest size

    def begin(self) -> None:
        """One bio-eval sweep at a reduced template count; its EER is checked."""
        ms, out = self.run("bio-eval", ["bio-eval", "--synthetic", "--seed", self.seed,
                                        "--templates", self.EVAL_TEMPLATES], passphrase=False)
        eer = float(out.rsplit("EER", 1)[1]) if "EER" in out else 1.0
        self.checks.record(eer < EER_CEILING, "bio-eval: EER above the ceiling")
        comparisons = self.EVAL_TEMPLATES * (3 + 5)  # bio-eval's default probe counts
        self.details["bio_eval_cmp_per_s"] = comparisons / (ms / 1000.0)
        self.details["bio_eer"] = eer

    def cycle(self) -> dict[str, float]:
        impostor_at = self.rotation % len(self.steps)
        self.rotation += 1
        per_step = [self._step(i, impostor=(i == impostor_at)) for i in range(len(self.steps))]
        return {cmd: statistics.fmean(t[cmd] for t in per_step) for cmd in COMMANDS}

    def _step(self, index: int, impostor: bool) -> dict[str, float]:
        n, profile, genuine, impostor_probe = self.steps[index]

        def impostor_attempt():
            with self.paused():
                before = (profile.store_path.read_bytes(), profile.vault_path.read_bytes())
            self.run("impostor", ["unmask", *profile.args(), "--all",
                                  "--fingerprint", impostor_probe], expect=2)
            with self.paused():
                after = (profile.store_path.read_bytes(), profile.vault_path.read_bytes())
            self.checks.record(before == after, "impostor: store or vault bytes changed")

        return self.round_trip(profile, sorted(profile.host_counts), self.ORDER,
                               probe=genuine,
                               before_unmask=impostor_attempt if impostor else None)

    def any_store(self) -> Path:
        return self.steps[0][1].store_path

    def matcher_pairs(self) -> list:
        pairs = {}
        for n, profile, genuine, _ in self.steps:
            pairs.setdefault(n, (minutiae.load_template(profile.directory / "enrolled.min"),
                                 minutiae.load_template(genuine)))
        return [(n, a, b) for n, (a, b) in pairs.items()]
