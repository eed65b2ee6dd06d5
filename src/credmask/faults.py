"""Test-only fault injection.

Setting the environment variable ``CREDMASK_CRASH_POINT`` to the name of a
crash point makes execution raise :class:`SimulatedCrash` when it reaches that
point, standing in for abrupt process death in crash-safety tests. Production
runs never set the variable.

Known points: ``vault-commit-pre-replace``, ``after-vault-commit``,
``after-store-delete`` (mask) and ``after-store-insert`` (unmask, after the
store commit and before the vault commit).
"""

from __future__ import annotations

import os

CRASH_ENV = "CREDMASK_CRASH_POINT"


class SimulatedCrash(RuntimeError):
    """Raised at an armed crash point; never caught by library code."""


def crash_point(name: str) -> None:
    if os.environ.get(CRASH_ENV) == name:
        raise SimulatedCrash(name)
