"""Key derivation and authenticated encryption for the vault.

Keys come from Argon2id over the owner's passphrase, parameterized by
(memory cost in bytes, iterations, parallelism, 16-byte salt). The sealed
body is ChaCha20-Poly1305 under a per-message subkey derived from the file
key and a fresh 24-byte nonce via HKDF-SHA256, so every commit re-encrypts
under an independent key and the trailing 16 bytes are the Poly1305 tag.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.argon2 import Argon2id
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

KEY_LEN = 32
SALT_LEN = 16
NONCE_LEN = 24
TAG_LEN = 16

_SUBKEY_INFO = b"credmask vault aead v1"
_INNER_NONCE = bytes(12)  # subkey is unique per message, so a fixed inner nonce is safe

DEFAULT_MEMORY_BYTES = 64 * 1024 * 1024
DEFAULT_ITERATIONS = 3
DEFAULT_PARALLELISM = 1

# Plausibility caps. Parameters above these are rejected before any key is
# derived, so a corrupted header can never make the KDF chew through
# gigabytes or spin for hours.
MAX_MEMORY_BYTES = 1024 * 1024 * 1024
MAX_ITERATIONS = 1000


class _KdfFields(NamedTuple):
    memory_bytes: int
    iterations: int
    parallelism: int
    salt: bytes


class KdfParams(_KdfFields):
    """Argon2id cost and salt, checked against the plausibility caps."""

    __slots__ = ()

    def __new__(cls, memory_bytes: int, iterations: int, parallelism: int, salt: bytes):
        if len(salt) != SALT_LEN:
            raise ValueError(f"salt must be {SALT_LEN} bytes")
        if parallelism < 1 or parallelism > 255:
            raise ValueError("parallelism must be in 1..255")
        if not 1 <= iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be in 1..{MAX_ITERATIONS}")
        if memory_bytes % 1024 or memory_bytes < 8 * 1024 * parallelism:
            raise ValueError("memory must be a KiB multiple of at least 8 KiB per lane")
        if memory_bytes > MAX_MEMORY_BYTES:
            raise ValueError(f"memory must not exceed {MAX_MEMORY_BYTES} bytes")
        return tuple.__new__(cls, (memory_bytes, iterations, parallelism, salt))

    @classmethod
    def generate(cls, memory_bytes: int = DEFAULT_MEMORY_BYTES,
                 iterations: int = DEFAULT_ITERATIONS,
                 parallelism: int = DEFAULT_PARALLELISM) -> "KdfParams":
        return cls(memory_bytes, iterations, parallelism, os.urandom(SALT_LEN))

    def with_fresh_salt(self) -> "KdfParams":
        return KdfParams(self.memory_bytes, self.iterations, self.parallelism,
                         os.urandom(SALT_LEN))


def derive_key(secret: bytes, params: KdfParams) -> bytes:
    """32-byte Argon2id digest of the secret under the given parameters."""
    return Argon2id(
        salt=params.salt,
        length=KEY_LEN,
        iterations=params.iterations,
        lanes=params.parallelism,
        memory_cost=params.memory_bytes // 1024,
    ).derive(secret)


def _subkey(key: bytes, nonce: bytes) -> bytes:
    return HKDF(algorithm=SHA256(), length=KEY_LEN, salt=nonce,
                info=_SUBKEY_INFO).derive(key)


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    return ChaCha20Poly1305(_subkey(key, nonce)).encrypt(_INNER_NONCE, plaintext, aad)


def open_sealed(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """Decrypt and authenticate; raises InvalidTag on any mismatch."""
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    return ChaCha20Poly1305(_subkey(key, nonce)).decrypt(_INNER_NONCE, ciphertext, aad)


__all__ = [
    "KdfParams", "derive_key", "seal", "open_sealed", "InvalidTag",
    "KEY_LEN", "SALT_LEN", "NONCE_LEN", "TAG_LEN",
]
