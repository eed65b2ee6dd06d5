"""Command-line interface.

Exit codes are a stable contract scripts may rely on:

    0  success
    1  usage or internal error
    2  authentication failure (wrong passphrase, bad probe, policy unsatisfied)
    3  store busy (browser lock or database lock)
    4  vault tampered / wrong secret outside an authentication step
    5  unresolved conflicts under --conflicts fail

No secret (passphrase, minutia coordinates) is ever written to stdout or
stderr.

Every command is a fresh process, so the front end is the standard library's
argparse: it parses in a fraction of the time click takes to import.
"""

from __future__ import annotations

import argparse
import functools
import os
import sqlite3
import sys
from contextlib import ExitStack
from pathlib import Path

from . import auth, engine, store, vault
from .crypto import KdfParams
from .errors import (
    AuthFailedError,
    CredmaskError,
    PolicyUnsatisfiedError,
    StoreBusyError,
    TamperedVaultError,
    BadVersionError,
    UnresolvedConflictError,
    WrongSecretError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUTH = 2
EXIT_BUSY = 3
EXIT_VAULT = 4
EXIT_CONFLICT = 5

DEFAULT_KEYSTORE_NAME = "key3.db"
CONFIG_KEYS = ("lock_file", "vault")


class UsageError(CredmaskError):
    """A mistake on the command line or in the config file, or an aborted
    prompt; exits 1 with its message."""


# -- option plumbing ----------------------------------------------------------

def _load_config(path: str | None) -> dict[str, str]:
    """Optional key=value config: browser lock filename, default vault path."""
    if not path:
        return {}
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(
                f"unknown config key {key!r} (known: {', '.join(CONFIG_KEYS)})")
        if key == "lock_file" and not value:
            raise UsageError("config key 'lock_file' needs a file name")
        out[key] = value
    return out


def _sibling_locks(config: dict[str, str]) -> tuple[str, ...]:
    if "lock_file" in config:
        return (config["lock_file"],)
    return store.DEFAULT_SIBLING_LOCKS


def _vault_path(config: dict[str, str], option: str | None) -> str:
    path = option or config.get("vault")
    if not path:
        raise UsageError("no vault path given (use --vault or the config file)")
    return path


def _prompt(text: str, hidden: bool = False) -> str:
    """Ask until the answer is not empty; Ctrl-C or EOF aborts the command."""
    try:
        while True:
            if hidden:
                import getpass  # only a prompt needs it; not on every command's start
                answer = getpass.getpass(f"{text}: ")
            else:
                answer = input(f"{text}: ")
            if answer:
                return answer
    except (KeyboardInterrupt, EOFError):
        if hidden:
            print()  # getpass leaves the prompt's line open
        raise UsageError("aborted") from None


def _read_passphrase(passphrase_fd: int | None, confirm: bool = False,
                     prompt: str = "Vault passphrase") -> str:
    if passphrase_fd is not None:
        data = b""
        while True:
            chunk = os.read(passphrase_fd, 4096)
            if not chunk:
                break
            data += chunk
            if b"\n" in data:
                break
        line, newline, _ = data.partition(b"\n")
        try:
            return (line.removesuffix(b"\r") if newline else line).decode("utf-8")  # LF or CRLF
        except UnicodeDecodeError:  # its message quotes a byte of the passphrase
            raise UsageError("passphrase is not valid UTF-8") from None
    while True:
        value = _prompt(prompt, hidden=True)
        if not confirm or _prompt("Repeat for confirmation", hidden=True) == value:
            return value
        print("Error: The two entered values do not match.")


def _default_keystore(store_path: str) -> str | None:
    candidate = Path(store_path).parent / DEFAULT_KEYSTORE_NAME
    return str(candidate) if candidate.is_file() else None


def _open_vault_as_auth(vault_path, passphrase, decode=()) -> vault.VaultFile:
    """Open a vault where presenting the passphrase IS the authentication step,
    so a wrong secret is an auth failure (exit 2), not a vault error (exit 4).
    ``decode`` is as for :func:`vault.open_vault`."""
    try:
        return vault.open_vault(vault_path, passphrase, decode)
    except WrongSecretError as exc:
        raise AuthFailedError(str(exc)) from exc


def _echo_err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _checkpoint(handle: store.StoreHandle) -> None:
    """Empty a WAL store's log after rows left the store, or say that a reader kept it."""
    if not handle.checkpoint():
        print("warning: another connection holds the store open; the deleted "
              "rows' bytes remain in its files until the browser closes", file=sys.stderr)


def _write_lines(lines) -> None:
    sys.stdout.write("".join(f"{line}\n" for line in lines))


# -- commands -------------------------------------------------------------------

def cmd_list(store_path, vault_path, fmt, passphrase_fd, config_path):
    """List hosts with stored credentials and whether each is live or masked."""
    vault_path = vault_path or _load_config(config_path).get("vault")
    with ExitStack() as stack:
        handle = stack.enter_context(store.open_store(store_path, store.READ_ONLY))
        rows = [(host, count, "live") for host, count in handle.host_counts().items()]
        if vault_path and Path(vault_path).exists():
            vf = stack.enter_context(
                vault.open_vault(vault_path, _read_passphrase(passphrase_fd)))
            for entry in vf.entries.values():
                rows.append((entry.hostname, entry.row_count, "masked"))
    rows.sort(key=lambda r: r[0])
    if fmt == "json-lines":
        import json  # only this format needs it; not on every command's start
        # the bytes json.dumps gives the whole dict, without building one per line
        _write_lines(f'{{"hostname": {json.dumps(host)}, "rows": {count}, "state": "{state}"}}'
                     for host, count, state in rows)
    else:
        _write_lines([f"{'HOSTNAME':<40} {'ROWS':>4} STATE",
                      *(f"{host:<40} {count:>4} {state}" for host, count, state in rows)])


def cmd_mask(store_path, vault_path, hosts_csv, keystore_path, init_vault,
             kdf_memory_mib, kdf_iterations, dry_run, force, passphrase_fd,
             config_path):
    """Move selected hosts' saved logins from the store into the vault."""
    config = _load_config(config_path)
    vault_path = _vault_path(config, vault_path)
    locks = () if force else _sibling_locks(config)
    keystore_path = keystore_path or _default_keystore(store_path)

    with ExitStack() as stack:
        mode = store.READ_ONLY if dry_run else store.READ_WRITE
        handle = stack.enter_context(store.open_store(store_path, mode))
        if Path(vault_path).exists():
            vf = stack.enter_context(
                vault.open_vault(vault_path, _read_passphrase(passphrase_fd)))
        elif dry_run:  # a dry run creates no vault, --init or not
            vf = None
        elif init_vault:
            params = KdfParams.generate(kdf_memory_mib * 1024 * 1024, kdf_iterations)
            vf = stack.enter_context(
                vault.create_vault(vault_path,
                                   _read_passphrase(passphrase_fd, confirm=True),
                                   params))
        else:
            raise UsageError(
                f"vault {vault_path} does not exist (pass --init to create it)")

        if hosts_csv:
            hosts = [h.strip() for h in hosts_csv.split(",") if h.strip()]
        else:
            hosts = _interactive_selection(handle, vf)
        if dry_run:
            plan = engine.plan_mask(handle, vf, hosts, keystore_path)
            _write_lines(["dry run, nothing changed; would mask:",
                          *(f"  {hostname}  rows {list(row_ids)}"
                            for hostname, row_ids, _ in plan.selections)])
            return

        plan = engine.apply_mask(handle, vf, hosts, keystore_path, sibling_locks=locks)
        _checkpoint(handle)

    _write_lines([f"masked {len(plan.selections)} host(s); mode: {engine.MODE_MASKED}",
                  "Log off and log back in now so open sessions drop their cached logins."])


def _interactive_selection(handle: store.StoreHandle, vf) -> list[str]:
    counts = handle.host_counts()
    vaulted = vf.entries if vf is not None else {}
    options = [h for h in sorted(counts) if h not in vaulted]
    if not options:
        raise UsageError("no live hosts available to mask")
    _write_lines(["Hosts with stored credentials:",
                  *(f"  {i}) {host} ({counts[host]} row(s))"
                    for i, host in enumerate(options, start=1))])
    answer = _prompt("Select hosts to mask (e.g. 1,3-5 or 'all')").strip()
    if answer.lower() == "all":
        return options
    picked: list[str] = []
    try:
        for part in answer.replace(" ", "").split(","):
            if not part:
                continue
            lo, sep, hi = part.partition("-")
            first, last = int(lo), int(hi if sep else lo)
            if first < 1:
                raise ValueError  # options[0 - 1] would be the last host
            picked.extend(options[n - 1] for n in range(first, last + 1))
    except (ValueError, IndexError):
        raise UsageError(f"cannot parse selection {answer!r}")
    if not picked:
        raise UsageError("empty selection")
    return picked


def cmd_unmask(store_path, vault_path, hosts_csv, unmask_all, conflict_policy,
               probe_path, store_moved, force, passphrase_fd, gate_passphrase_fd,
               config_path):
    """Authenticate, then restore masked rows byte-exactly into the store."""
    config = _load_config(config_path)
    vault_path = _vault_path(config, vault_path)
    locks = () if force else _sibling_locks(config)
    if unmask_all == bool(hosts_csv):
        raise UsageError("pass exactly one of --hosts or --all")
    passphrase = _read_passphrase(passphrase_fd)
    hosts = None if unmask_all else [h.strip() for h in hosts_csv.split(",") if h.strip()]

    with ExitStack() as stack:
        # the rows to restore are decoded by the walk that checks them
        vf = stack.enter_context(_open_vault_as_auth(vault_path, passphrase, hosts))
        proof = _collect_proof(vf, gate_passphrase_fd, probe_path)
        plan = engine.plan_unmask(vf, hosts, conflict_policy, store_moved=store_moved)
        rw = stack.enter_context(store.open_store(store_path, store.READ_WRITE))
        conflicts = engine.apply_unmask(plan, proof, rw, vf, sibling_locks=locks)
        if conflict_policy == engine.OVERWRITE_LIVE:
            _checkpoint(rw)

    _write_lines([*(f"conflict on {c.hostname}: {c.live_rows} live / "
                    f"{c.vaulted_rows} vaulted row(s), {c.action}, "
                    f"{c.restored_rows} restored" for c in conflicts),
                  f"restored {len(plan.hosts)} host(s); mode: "
                  f"{engine.MODE_MASKED if vf.entries else engine.MODE_NORMAL}"])


def _collect_proof(vf: vault.VaultFile, gate_passphrase_fd: int | None,
                   probe_path: str | None) -> auth.AuthProof:
    """Assemble the proof set the vault's policy asks for."""
    needed = auth.required_kinds(vf.policy)
    proofs: list[auth.AuthProof] = []
    if auth.KIND_PASSPHRASE in needed:
        records = [r for r in vf.auth_records if r.kind == auth.KIND_PASSPHRASE]
        if records:
            gate = _read_passphrase(gate_passphrase_fd, prompt="Gate passphrase")
            proofs.append(auth.verify_passphrase(records[0], gate))
        else:
            # decrypting the vault is itself proof of the passphrase
            proofs.append(vf.open_proof)
    if auth.KIND_FINGERPRINT in needed:
        records = [r for r in vf.auth_records if r.kind == auth.KIND_FINGERPRINT]
        if not records or not probe_path:
            raise PolicyUnsatisfiedError({auth.KIND_FINGERPRINT})
        from .minutiae import load_template  # only a fingerprint check reads a .min
        probe = load_template(probe_path)
        proof = None
        last_error: AuthFailedError | None = None
        for record in records:
            try:
                proof = auth.verify_fingerprint(record, probe)
                break
            except AuthFailedError as exc:
                last_error = exc
        if proof is None:
            raise last_error
        proofs.append(proof)
    combined = proofs[0]
    for p in proofs[1:]:
        combined = combined.merged_with(p)
    return combined


def cmd_status(store_path, vault_path, passphrase_fd, config_path):
    """Report the current mode, the masked hosts, and key-store integrity."""
    config = _load_config(config_path)
    vault_path = vault_path or config.get("vault")
    with ExitStack() as stack:
        handle = stack.enter_context(store.open_store(store_path, store.READ_ONLY))
        if vault_path and Path(vault_path).exists():
            vf = stack.enter_context(
                vault.open_vault(vault_path, _read_passphrase(passphrase_fd)))
            report = engine.status(handle, vf)
            lines = [f"mode: {report.mode}"]
        else:
            report = engine.status(handle, None)
            lines = [f"mode: {report.mode} (no vault)"]
        if report.masked_hosts:
            lines.append("masked hosts: " + ", ".join(report.masked_hosts))
        lines.append(f"live hosts: {len(report.live_hosts)}")
        lines.append(f"keystore: {'ok' if report.keystore_ok else 'CHANGED'}")
        lines.extend(f"store: MISMATCH, hosts masked from {other}"
                     for other in report.foreign_stores)
        _write_lines(lines)


def cmd_enroll_passphrase(vault_path, passphrase_fd, gate_passphrase_fd):
    """Enroll or replace the gate passphrase (may differ from the vault
    passphrase); unmask then asks for it."""
    passphrase = _read_passphrase(passphrase_fd)
    with _open_vault_as_auth(vault_path, passphrase) as vf:
        gate = _read_passphrase(gate_passphrase_fd, confirm=True, prompt="Gate passphrase")
        auth.enroll_passphrase(vf, gate, proof=vf.open_proof)
        vf.commit()
    print("passphrase enrolled")


def cmd_enroll_fingerprint(vault_path, template_path, threshold, passphrase_fd):
    """Enroll a fingerprint template from a .min file."""
    from .minutiae import load_template
    template = load_template(template_path)
    with _open_vault_as_auth(vault_path, _read_passphrase(passphrase_fd)) as vf:
        auth.enroll_fingerprint(vf, template, threshold)
        vf.commit()
    print(f"fingerprint enrolled ({len(template)} minutiae, threshold {threshold})")


def cmd_set_policy(policy, vault_path, passphrase_fd):
    """Choose which credential kinds unmasking requires."""
    with _open_vault_as_auth(vault_path, _read_passphrase(passphrase_fd)) as vf:
        auth.set_policy(vf, policy)
        vf.commit()
    print(f"policy: {policy}")


def cmd_bio_eval(dataset_dir, synthetic, seed, n_templates, n_minutiae, field_spec,
                 position_jitter, angle_jitter, deletion_rate, probes, impostors, fmt):
    """Sweep thresholds over genuine/impostor scores; print FAR, FRR, and the EER."""
    if synthetic == bool(dataset_dir):
        raise UsageError("pass exactly one of --dataset or --synthetic")
    from . import evaluation  # loads numpy, which no vault command needs
    if synthetic:
        try:
            width, height = (int(v) for v in field_spec.lower().split("x"))
        except ValueError:
            raise UsageError(f"--field must look like 400x400: {field_spec!r}")
        if impostors is None:
            impostors = min(5, n_templates - 1)
        records = evaluation.generate_synthetic(
            seed, n_templates, n_minutiae, (width, height),
            position_jitter, angle_jitter, deletion_rate, probes, impostors)
        genuine, impostor = evaluation.score_dataset(records)
    else:
        enrolled, genuine_probes, impostor_probes = evaluation.load_eval_dataset(dataset_dir)
        genuine = evaluation.score_probes(enrolled, genuine_probes)
        impostor = evaluation.score_probes(enrolled, impostor_probes)

    report = evaluation.evaluate(genuine, impostor)
    sweep = zip(report.thresholds, report.far, report.frr)
    if fmt == "csv":
        _write_lines(["threshold,far,frr",
                      *(f"{t:.6f},{far:.6f},{frr:.6f}" for t, far, frr in sweep)])
        print(f"EER {report.eer:.4f}", file=sys.stderr)
    else:
        _write_lines([f"{'threshold':>10} {'FAR':>8} {'FRR':>8}",
                      *(f"{t:>10.4f} {far:>8.4f} {frr:>8.4f}" for t, far, frr in sweep),
                      f"genuine {len(genuine)}, impostor {len(impostor)} comparisons",
                      f"EER {report.eer:.4f}"])


# -- the command line -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Options spelled out in full; a mistake raises UsageError (exit 1), since
    argparse's own status 2 is EXIT_AUTH."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _command(commands, name: str, run) -> argparse.ArgumentParser:
    doc = " ".join((run.__doc__ or "").split())
    parser = commands.add_parser(name, help=doc, description=doc)
    parser.set_defaults(run=run)
    return parser


def _option(parser, flag: str, dest: str, required: bool = False, metavar: str = "PATH",
            help: str | None = None) -> None:
    parser.add_argument(flag, dest=dest, required=required, metavar=metavar, help=help)


def _secret_fd(parser, flag: str = "--passphrase-fd") -> None:
    parser.add_argument(flag, type=int, default=None, help=argparse.SUPPRESS)


def _config(parser) -> None:
    _option(parser, "--config", "config_path", help="key=value file: vault, lock_file.")


def _flag(parser, flag: str, help: str, dest: str | None = None) -> None:
    parser.add_argument(flag, dest=dest, action="store_true", help=help)


def _valued(parser, flag: str, type, default, dest: str | None = None,
            help: str = "", choices=None) -> None:
    parser.add_argument(flag, dest=dest, type=type, default=default, choices=choices,
                        help=f"{help} (default: %(default)s)".lstrip())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Every command and option, built once per process."""
    parser = _Parser(prog="credmask", description="Mask browser saved logins into an "
                     "encrypted vault and restore them later.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    skip_lock = "Skip only the browser lock-file check."

    p = _command(commands, "list", cmd_list)
    _option(p, "--store", "store_path", required=True, help="Login store database.")
    _option(p, "--vault", "vault_path",
            help="Vault to include masked hosts (prompts for the passphrase).")
    _valued(p, "--format", str, "table", dest="fmt", choices=("table", "json-lines"))
    _secret_fd(p)
    _config(p)

    p = _command(commands, "mask", cmd_mask)
    _option(p, "--store", "store_path", required=True)
    _option(p, "--vault", "vault_path")
    _option(p, "--hosts", "hosts_csv", metavar="H1,H2,...",
            help="Hosts to mask; omit for an interactive menu.")
    _option(p, "--keystore", "keystore_path", help="Key-store file to fingerprint "
            f"(defaults to a sibling {DEFAULT_KEYSTORE_NAME} when present).")
    _flag(p, "--init", "Create the vault first (prompts for a new passphrase twice).",
          dest="init_vault")
    _valued(p, "--kdf-memory-mib", int, 64,
            help="Argon2id memory cost for a vault created with --init.")
    _valued(p, "--kdf-iterations", int, 3,
            help="Argon2id iterations for a vault created with --init.")
    _flag(p, "--dry-run", "Plan and print, mutate nothing.")
    _flag(p, "--force", skip_lock)
    _secret_fd(p)
    _config(p)

    p = _command(commands, "unmask", cmd_unmask)
    _option(p, "--store", "store_path", required=True)
    _option(p, "--vault", "vault_path")
    _option(p, "--hosts", "hosts_csv", metavar="H1,H2,...")
    _flag(p, "--all", "Restore every masked host.", dest="unmask_all")
    _valued(p, "--conflicts", str, engine.KEEP_LIVE, dest="conflict_policy",
            choices=engine.CONFLICT_POLICIES,
            help="What to do when a masked host has live rows again.")
    _option(p, "--fingerprint", "probe_path", metavar="PROBE.min",
            help="Minutiae probe file, required when the policy includes one.")
    _flag(p, "--store-moved", "Restore hosts masked from another store path (a moved "
          "profile); a recorded key store must match the one beside --store.")
    _flag(p, "--force", skip_lock)
    _secret_fd(p)
    _secret_fd(p, "--gate-passphrase-fd")
    _config(p)

    p = _command(commands, "status", cmd_status)
    _option(p, "--store", "store_path", required=True)
    _option(p, "--vault", "vault_path")
    _secret_fd(p)
    _config(p)

    p = commands.add_parser("auth", help="Manage the credentials that gate unmasking.",
                            description="Manage the credentials that gate unmasking.")
    auth_commands = p.add_subparsers(metavar="COMMAND", required=True)
    p = _command(auth_commands, "enroll-passphrase", cmd_enroll_passphrase)
    _option(p, "--vault", "vault_path", required=True)
    _secret_fd(p)
    _secret_fd(p, "--gate-passphrase-fd")
    p = _command(auth_commands, "enroll-fingerprint", cmd_enroll_fingerprint)
    _option(p, "--vault", "vault_path", required=True)
    _option(p, "--template", "template_path", required=True, metavar="T.min")
    _valued(p, "--threshold", float, auth.DEFAULT_FINGERPRINT_THRESHOLD)
    _secret_fd(p)
    p = _command(auth_commands, "set-policy", cmd_set_policy)
    p.add_argument("policy", choices=auth.POLICIES)
    _option(p, "--vault", "vault_path", required=True)
    _secret_fd(p)

    p = _command(commands, "bio-eval", cmd_bio_eval)
    _option(p, "--dataset", "dataset_dir", metavar="DIR",
            help="Directory with enrolled.min plus genuine/ and impostor/ probes.")
    _flag(p, "--synthetic", "Evaluate on a generated dataset.")
    _valued(p, "--seed", int, 7)
    _valued(p, "--templates", int, 50, dest="n_templates")
    _valued(p, "--minutiae", int, 20, dest="n_minutiae")
    _valued(p, "--field", str, "400x400", dest="field_spec")
    _valued(p, "--position-jitter", float, 2.0)
    _valued(p, "--angle-jitter", float, 0.1)
    _valued(p, "--deletion-rate", float, 0.1)
    _valued(p, "--probes", int, 3)
    p.add_argument("--impostors", type=int, default=None,
                   help="Impostor probes per template (default: min(5, templates - 1)).")
    _valued(p, "--format", str, "table", dest="fmt", choices=("table", "csv"))
    return parser


# -- dispatch -----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """Run the CLI, mapping every error to its contract exit code."""
    try:
        try:
            args = vars(_parser().parse_args(argv))
        except SystemExit as exc:  # --help, status 0; a mistake raises UsageError
            return exc.code
        args.pop("run")(**args)
        return EXIT_OK
    except (AuthFailedError, PolicyUnsatisfiedError) as exc:
        _echo_err(str(exc))
        return EXIT_AUTH
    except StoreBusyError as exc:
        _echo_err(str(exc))
        return EXIT_BUSY
    except (TamperedVaultError, BadVersionError, WrongSecretError) as exc:
        _echo_err(str(exc))
        return EXIT_VAULT
    except UnresolvedConflictError as exc:
        _echo_err(str(exc))
        return EXIT_CONFLICT
    except (CredmaskError, OSError, ValueError, sqlite3.Error) as exc:
        _echo_err(str(exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
