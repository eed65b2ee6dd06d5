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
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path

import click

from . import auth, engine, evaluation, minutiae, store, vault
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
            raise click.UsageError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise click.UsageError(
                f"unknown config key {key!r} (known: {', '.join(CONFIG_KEYS)})")
        if key == "lock_file" and not value:
            raise click.UsageError("config key 'lock_file' needs a file name")
        out[key] = value
    return out


def _sibling_locks(config: dict[str, str]) -> tuple[str, ...]:
    if "lock_file" in config:
        return (config["lock_file"],)
    return store.DEFAULT_SIBLING_LOCKS


def _vault_path(config: dict[str, str], option: str | None) -> str:
    path = option or config.get("vault")
    if not path:
        raise click.UsageError("no vault path given (use --vault or the config file)")
    return path


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
        return (line.removesuffix(b"\r") if newline else line).decode("utf-8")  # LF or CRLF
    return click.prompt(prompt, hide_input=True, confirmation_prompt=confirm)


def _default_keystore(store_path: str) -> str | None:
    candidate = Path(store_path).parent / DEFAULT_KEYSTORE_NAME
    return str(candidate) if candidate.is_file() else None


def _open_vault_as_auth(vault_path, passphrase) -> vault.VaultFile:
    """Open a vault where presenting the passphrase IS the authentication step,
    so a wrong secret is an auth failure (exit 2), not a vault error (exit 4)."""
    try:
        return vault.open_vault(vault_path, passphrase)
    except WrongSecretError as exc:
        raise AuthFailedError(str(exc)) from exc


def _echo_err(message: str) -> None:
    click.echo(f"error: {message}", err=True)


def _checkpoint(handle: store.StoreHandle) -> None:
    """Empty a WAL store's log after rows left the store, or say that a reader kept it."""
    if not handle.checkpoint():
        click.echo("warning: another connection holds the store open; the deleted "
                   "rows' bytes remain in its files until the browser closes", err=True)


# -- commands -------------------------------------------------------------------

@click.group()
def cli() -> None:
    """Mask browser saved logins into an encrypted vault and restore them later."""


@cli.command("list")
@click.option("--store", "store_path", required=True, metavar="PATH",
              help="Login store database.")
@click.option("--vault", "vault_path", metavar="PATH",
              help="Vault to include masked hosts (prompts for the passphrase).")
@click.option("--format", "fmt", type=click.Choice(["table", "json-lines"]),
              default="table", show_default=True)
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
@click.option("--config", "config_path", metavar="PATH", default=None)
def cmd_list(store_path, vault_path, fmt, passphrase_fd, config_path):
    """List hosts with stored credentials and whether each is live or masked."""
    vault_path = vault_path or _load_config(config_path).get("vault")
    with ExitStack() as stack:
        handle = stack.enter_context(store.open_store(store_path, store.READ_ONLY))
        rows = [(host, len(ids), "live") for host, ids in handle.host_row_ids().items()]
        if vault_path and Path(vault_path).exists():
            vf = stack.enter_context(
                vault.open_vault(vault_path, _read_passphrase(passphrase_fd)))
            for entry in vf.entries:
                rows.append((entry.hostname, entry.row_count, "masked"))
    rows.sort(key=lambda r: r[0])
    if fmt == "json-lines":
        for host, count, state in rows:
            click.echo(json.dumps({"hostname": host, "rows": count, "state": state}))
    else:
        click.echo(f"{'HOSTNAME':<40} {'ROWS':>4} STATE")
        for host, count, state in rows:
            click.echo(f"{host:<40} {count:>4} {state}")


@cli.command("mask")
@click.option("--store", "store_path", required=True, metavar="PATH")
@click.option("--vault", "vault_path", metavar="PATH")
@click.option("--hosts", "hosts_csv", metavar="H1,H2,...",
              help="Hosts to mask; omit for an interactive menu.")
@click.option("--keystore", "keystore_path", metavar="PATH",
              help="Key-store file to fingerprint (defaults to a sibling "
                   f"{DEFAULT_KEYSTORE_NAME} when present).")
@click.option("--init", "init_vault", is_flag=True,
              help="Create the vault first (prompts for a new passphrase twice).")
@click.option("--kdf-memory-mib", type=int, default=64, show_default=True,
              help="Argon2id memory cost for a vault created with --init.")
@click.option("--kdf-iterations", type=int, default=3, show_default=True,
              help="Argon2id iterations for a vault created with --init.")
@click.option("--dry-run", is_flag=True, help="Plan and print, mutate nothing.")
@click.option("--force", is_flag=True, help="Skip only the browser lock-file check.")
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
@click.option("--config", "config_path", metavar="PATH", default=None)
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
            raise click.UsageError(
                f"vault {vault_path} does not exist (pass --init to create it)")

        if hosts_csv:
            hosts = [h.strip() for h in hosts_csv.split(",") if h.strip()]
        else:
            hosts = _interactive_selection(handle, vf)
        plan = engine.plan_mask(handle, vf, hosts, keystore_path)

        if dry_run:
            click.echo("dry run, nothing changed; would mask:")
            for hostname, row_ids in plan.selections:
                click.echo(f"  {hostname}  rows {list(row_ids)}")
            return

        report = engine.apply_mask(plan, handle, vf, sibling_locks=locks)
        _checkpoint(handle)

    click.echo(f"masked {len(plan.selections)} host(s); mode: {report.mode}")
    click.echo("Log off and log back in now so open sessions drop their cached logins.")


def _interactive_selection(handle: store.StoreHandle, vf) -> list[str]:
    counts = {host: len(ids) for host, ids in handle.host_row_ids().items()}
    vaulted = set(vf.hosts()) if vf is not None else set()
    options = [h for h in sorted(counts) if h not in vaulted]
    if not options:
        raise click.UsageError("no live hosts available to mask")
    click.echo("Hosts with stored credentials:")
    for i, host in enumerate(options, start=1):
        click.echo(f"  {i}) {host} ({counts[host]} row(s))")
    answer = click.prompt("Select hosts to mask (e.g. 1,3-5 or 'all')").strip()
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
        raise click.UsageError(f"cannot parse selection {answer!r}")
    if not picked:
        raise click.UsageError("empty selection")
    return picked


@cli.command("unmask")
@click.option("--store", "store_path", required=True, metavar="PATH")
@click.option("--vault", "vault_path", metavar="PATH")
@click.option("--hosts", "hosts_csv", metavar="H1,H2,...")
@click.option("--all", "unmask_all", is_flag=True, help="Restore every masked host.")
@click.option("--conflicts", "conflict_policy",
              type=click.Choice(list(engine.CONFLICT_POLICIES)),
              default=engine.KEEP_LIVE, show_default=True,
              help="What to do when a masked host has live rows again.")
@click.option("--fingerprint", "probe_path", metavar="PROBE.min",
              help="Minutiae probe file, required when the policy includes one.")
@click.option("--store-moved", is_flag=True,
              help="Restore hosts masked from another store path (a moved profile); "
                   "a recorded key store must match the one beside --store.")
@click.option("--force", is_flag=True, help="Skip only the browser lock-file check.")
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
@click.option("--gate-passphrase-fd", type=int, default=None, hidden=True)
@click.option("--config", "config_path", metavar="PATH", default=None)
def cmd_unmask(store_path, vault_path, hosts_csv, unmask_all, conflict_policy,
               probe_path, store_moved, force, passphrase_fd, gate_passphrase_fd,
               config_path):
    """Authenticate, then restore masked rows byte-exactly into the store."""
    config = _load_config(config_path)
    vault_path = _vault_path(config, vault_path)
    locks = () if force else _sibling_locks(config)
    if unmask_all == bool(hosts_csv):
        raise click.UsageError("pass exactly one of --hosts or --all")
    passphrase = _read_passphrase(passphrase_fd)

    with ExitStack() as stack:
        vf = stack.enter_context(_open_vault_as_auth(vault_path, passphrase))
        proof = _collect_proof(vf, gate_passphrase_fd, probe_path)
        hosts = None if unmask_all else [h.strip() for h in hosts_csv.split(",") if h.strip()]
        plan = engine.plan_unmask(vf, hosts, conflict_policy, store_moved=store_moved)
        rw = stack.enter_context(store.open_store(store_path, store.READ_WRITE))
        report, conflicts = engine.apply_unmask(plan, proof, rw, vf, sibling_locks=locks)
        if conflict_policy == engine.OVERWRITE_LIVE:
            _checkpoint(rw)

    for c in conflicts:
        click.echo(f"conflict on {c.hostname}: {c.live_rows} live / "
                   f"{c.vaulted_rows} vaulted row(s), {c.action}, "
                   f"{c.restored_rows} restored")
    click.echo(f"restored {len(plan.hosts)} host(s); mode: {report.mode}")


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
        probe = minutiae.load_template(probe_path)
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


@cli.command("status")
@click.option("--store", "store_path", required=True, metavar="PATH")
@click.option("--vault", "vault_path", metavar="PATH")
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
@click.option("--config", "config_path", metavar="PATH", default=None)
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
            click.echo(f"mode: {report.mode}")
        else:
            report = engine.status(handle, None)
            click.echo(f"mode: {report.mode} (no vault)")
        if report.masked_hosts:
            click.echo("masked hosts: " + ", ".join(report.masked_hosts))
        click.echo(f"live hosts: {len(report.live_hosts)}")
        click.echo(f"keystore: {'ok' if report.keystore_ok else 'CHANGED'}")
        for other in report.foreign_stores:
            click.echo(f"store: MISMATCH, hosts masked from {other}")


@cli.group("auth")
def cmd_auth() -> None:
    """Manage the credentials that gate unmasking."""


@cmd_auth.command("enroll-passphrase")
@click.option("--vault", "vault_path", required=True, metavar="PATH")
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
@click.option("--gate-passphrase-fd", type=int, default=None, hidden=True)
def cmd_enroll_passphrase(vault_path, passphrase_fd, gate_passphrase_fd):
    """Enroll or replace the gate passphrase (may differ from the vault
    passphrase); unmask then asks for it."""
    passphrase = _read_passphrase(passphrase_fd)
    with _open_vault_as_auth(vault_path, passphrase) as vf:
        gate = _read_passphrase(gate_passphrase_fd, confirm=True, prompt="Gate passphrase")
        auth.enroll_passphrase(vf, gate, proof=vf.open_proof)
        vf.commit()
    click.echo("passphrase enrolled")


@cmd_auth.command("enroll-fingerprint")
@click.option("--vault", "vault_path", required=True, metavar="PATH")
@click.option("--template", "template_path", required=True, metavar="T.min")
@click.option("--threshold", type=float, default=auth.DEFAULT_FINGERPRINT_THRESHOLD,
              show_default=True)
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
def cmd_enroll_fingerprint(vault_path, template_path, threshold, passphrase_fd):
    """Enroll a fingerprint template from a .min file."""
    template = minutiae.load_template(template_path)
    with _open_vault_as_auth(vault_path, _read_passphrase(passphrase_fd)) as vf:
        auth.enroll_fingerprint(vf, template, threshold)
        vf.commit()
    click.echo(f"fingerprint enrolled ({len(template)} minutiae, threshold {threshold})")


@cmd_auth.command("set-policy")
@click.argument("policy", type=click.Choice(list(auth.POLICIES)))
@click.option("--vault", "vault_path", required=True, metavar="PATH")
@click.option("--passphrase-fd", type=int, default=None, hidden=True)
def cmd_set_policy(policy, vault_path, passphrase_fd):
    """Choose which credential kinds unmasking requires."""
    with _open_vault_as_auth(vault_path, _read_passphrase(passphrase_fd)) as vf:
        auth.set_policy(vf, policy)
        vf.commit()
    click.echo(f"policy: {policy}")


@cli.command("bio-eval")
@click.option("--dataset", "dataset_dir", metavar="DIR",
              help="Directory with enrolled.min plus genuine/ and impostor/ probes.")
@click.option("--synthetic", is_flag=True, help="Evaluate on a generated dataset.")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--templates", "n_templates", type=int, default=50, show_default=True)
@click.option("--minutiae", "n_minutiae", type=int, default=20, show_default=True)
@click.option("--field", "field_spec", default="400x400", show_default=True)
@click.option("--position-jitter", type=float, default=2.0, show_default=True)
@click.option("--angle-jitter", type=float, default=0.1, show_default=True)
@click.option("--deletion-rate", type=float, default=0.1, show_default=True)
@click.option("--probes", type=int, default=3, show_default=True)
@click.option("--impostors", type=int, default=5, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["table", "csv"]),
              default="table", show_default=True)
def cmd_bio_eval(dataset_dir, synthetic, seed, n_templates, n_minutiae, field_spec,
                 position_jitter, angle_jitter, deletion_rate, probes, impostors, fmt):
    """Sweep thresholds over genuine/impostor scores; print FAR, FRR, and the EER."""
    if synthetic == bool(dataset_dir):
        raise click.UsageError("pass exactly one of --dataset or --synthetic")
    if synthetic:
        try:
            width, height = (int(v) for v in field_spec.lower().split("x"))
        except ValueError:
            raise click.UsageError(f"--field must look like 400x400: {field_spec!r}")
        records = evaluation.generate_synthetic(
            seed, n_templates, n_minutiae, (width, height),
            position_jitter, angle_jitter, deletion_rate, probes, impostors)
        genuine, impostor = evaluation.score_dataset(records)
    else:
        enrolled, genuine_probes, impostor_probes = evaluation.load_eval_dataset(dataset_dir)
        genuine = evaluation.score_probes(enrolled, genuine_probes)
        impostor = evaluation.score_probes(enrolled, impostor_probes)

    report = evaluation.evaluate(genuine, impostor)
    if fmt == "csv":
        click.echo("threshold,far,frr")
        for t, far, frr in zip(report.thresholds, report.far, report.frr):
            click.echo(f"{t:.6f},{far:.6f},{frr:.6f}")
        click.echo(f"EER {report.eer:.4f}", err=True)
    else:
        click.echo(f"{'threshold':>10} {'FAR':>8} {'FRR':>8}")
        for t, far, frr in zip(report.thresholds, report.far, report.frr):
            click.echo(f"{t:>10.4f} {far:>8.4f} {frr:>8.4f}")
        click.echo(f"genuine {len(genuine)}, impostor {len(impostor)} comparisons")
        click.echo(f"EER {report.eer:.4f}")


# -- dispatch -----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """Run the CLI, mapping every error to its contract exit code."""
    try:
        cli.main(args=argv, prog_name="credmask", standalone_mode=False)
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
    except click.ClickException as exc:
        _echo_err(exc.format_message())
        return EXIT_ERROR
    except click.Abort:
        _echo_err("aborted")
        return EXIT_ERROR
    except (CredmaskError, OSError, ValueError) as exc:
        _echo_err(str(exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
