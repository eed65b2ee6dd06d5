"""Run one credmask command and kill its process at a durable step.

    PYTHONPATH=src python tests/crash_child.py [--abort] KILL_POINT COMMAND [OPTION ...]

It installs one kill point, then runs ``credmask.cli.main`` on the rest of the
command line. At the kill point the process ends with ``os._exit(137)``, the
status a shell reports for a SIGKILL, so no ``finally`` block, store rollback
or temp-file cleanup runs. What the process already wrote survives; a power
loss, which can also drop writes not yet fsynced, is not modelled. With
``--abort`` the process first raises its soft core-file limit to its hard
limit, and ends at the kill point with ``os.abort()`` instead: SIGABRT, which
dumps core unless something lowered the limit since. The kill points:

    vault-commit-pre-replace  inside VaultFile.commit, after the temp file is
                              written and fsynced, before it replaces the vault
    after-vault-commit        right after the command's first VaultFile.commit
    after-store-commit        right after StoreHandle.write_transaction commits

A command that never reaches its kill point exits as it would without one.
"""

import contextlib
import os
import resource
import signal
import subprocess
import sys

from credmask import cli, store, vault

KILLED = 137
ABORTED = -signal.SIGABRT  # the return code of a child that ended in os.abort()
KILL_POINTS = ("vault-commit-pre-replace", "after-vault-commit", "after-store-commit")


def run_killed(point, *args, passphrase, abort=False, cwd=None):
    """Run ``credmask ARGS --passphrase-fd 0`` in a child killed at ``point``,
    or aborted there with ``abort``, in ``cwd``; returns the CompletedProcess,
    with text output."""
    from conftest import CHILD_ENV  # here, so the killed child imports neither it nor pytest

    return subprocess.run(
        [sys.executable, __file__, *(["--abort"] if abort else []), point,
         *map(str, args), "--passphrase-fd", "0"],
        input=passphrase + "\n", capture_output=True, text=True, timeout=60,
        env=CHILD_ENV, cwd=cwd)


def die():
    os._exit(KILLED)


def install(point):
    if point == "vault-commit-pre-replace":
        class KillingOs:  # vault's os, whose replace is called only by a commit
            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def replace(src, dst):
                die()

        vault.os = KillingOs()
    elif point == "after-vault-commit":
        commit = vault.VaultFile.commit

        def killing_commit(self):
            commit(self)
            die()

        vault.VaultFile.commit = killing_commit
    elif point == "after-store-commit":
        transaction = store.StoreHandle.write_transaction
        depth = 0

        @contextlib.contextmanager
        def killing_transaction(self):
            nonlocal depth  # a nested call joins the outer transaction
            depth += 1
            try:
                with transaction(self):
                    yield
            finally:
                depth -= 1
            if depth == 0:
                die()

        store.StoreHandle.write_transaction = killing_transaction
    else:
        raise SystemExit(f"unknown kill point {point!r}; known: {', '.join(KILL_POINTS)}")


def main(argv):
    global die
    if argv[0] == "--abort":
        argv = argv[1:]
        _, hard = resource.getrlimit(resource.RLIMIT_CORE)
        resource.setrlimit(resource.RLIMIT_CORE, (hard, hard))
        die = os.abort
    install(argv[0])
    return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
