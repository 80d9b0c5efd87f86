"""Deterministic byte-level encodings used across the package.

Everything that is signed or hashed goes through canonical_json so that
two independent implementations of the same structure produce identical
bytes. Binary values embedded in JSON use unpadded base64url; identifier
strings use base58 with the bitcoin alphabet. Every durable log in the
package is JSON lines, written and replayed through `JsonLines`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Iterator

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}


def b58encode(data: bytes) -> str:
    """Encode bytes as base58 (bitcoin alphabet, leading zeros as '1')."""
    n = int.from_bytes(data, "big")
    out = []
    while n:
        n, rem = divmod(n, 58)
        out.append(_B58_ALPHABET[rem])
    pad = 0
    for byte in data:
        if byte == 0:
            pad += 1
        else:
            break
    return "1" * pad + "".join(reversed(out))


def b58decode(text: str) -> bytes:
    """Decode a base58 string. Raises ValueError on foreign characters."""
    n = 0
    for ch in text:
        try:
            n = n * 58 + _B58_INDEX[ch]
        except KeyError:
            raise ValueError(f"invalid base58 character: {ch!r}") from None
    body = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    pad = 0
    for ch in text:
        if ch == "1":
            pad += 1
        else:
            break
    return b"\x00" * pad + body


def b64u_encode(data: bytes) -> str:
    """Unpadded base64url."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64u_decode(text: str) -> bytes:
    pad = -len(text) % 4
    return base64.urlsafe_b64decode(text + "=" * pad)


def canonical_json(obj: Any) -> bytes:
    """Serialize to the canonical UTF-8 form used for signing and hashing.

    Keys sorted, no whitespace, non-ASCII passed through. Rejects NaN and
    infinity because they have no interoperable JSON representation.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class JsonLines:
    """An append-only file of sorted-key JSON objects, one per line.

    Each append opens, writes and closes the file, so nothing holds it open
    between writes. A path of None disables the log: appends are dropped
    and there is nothing to replay.
    """

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        if self.path is None:
            return
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def lines(self) -> Iterator[tuple[int, str]]:
        """(line number, text) for each non-blank line, read in one go."""
        if self.path is None or not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            raw = fh.readlines()
        for number, line in enumerate(raw, start=1):
            line = line.strip()
            if line:
                yield number, line
