"""Crash-safe persistence primitives: atomic writes + content checksums.

Every persistent artifact of a training run — the execution cache, the
agent weights, the resumable training state — is rewritten in place over
its previous version, so a kill or power cut landing mid-write must
never leave a truncated file as the only copy.  Two defenses compose:

* **atomicity** — :func:`atomic_write_text` / :func:`atomic_write` write
  a temporary sibling and ``os.replace`` it over the target, so the
  target is always either the old complete file or the new complete
  file (a crash before the rename loses nothing);
* **checksums** — the intended content's SHA-256 lands in a ``.sha256``
  sidecar next to the target.  A *torn* write that still renamed (lying
  fsync, device loss after rename) is caught on load by
  :func:`verify_checksum`; artifacts without a sidecar (pre-checksum
  files) load as before.  Sidecars, not embedded fields, so the
  artifact's own bytes stay exactly what they always were.

Fault injection: both writers consult the active
:class:`~repro.fault.plan.FaultPlan` at site ``"write"``; a scheduled
``partial_write`` truncates the temporary file *after* the checksum was
computed — exactly a torn write, which the loader must then detect.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .plan import FaultPlan, active_plan


class CorruptArtifactError(ValueError):
    """A persisted artifact failed its content checksum."""

    def __init__(self, path: Path | str, detail: str):
        super().__init__(
            f"{path} failed its integrity check: {detail}; the file is "
            "truncated or corrupt — restore it from a backup or delete "
            "it (and its .sha256 sidecar) to start fresh"
        )
        self.path = Path(path)
        self.detail = detail


def checksum_path(path: Path | str) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _maybe_truncate(temporary: Path, plan: FaultPlan | None, site_context: str) -> None:
    """Injected torn write: keep only the first half of the temp file."""
    if plan is None:
        plan = active_plan()
    if plan is None:
        return
    if plan.draw("write", context=site_context) == "partial_write":
        data = temporary.read_bytes()
        temporary.write_bytes(data[: max(1, len(data) // 2)])


def atomic_write(
    path: Path | str,
    data: bytes,
    plan: FaultPlan | None = None,
    checksum: bool = True,
) -> Path:
    """Atomically write ``data`` to ``path`` with a checksum sidecar.

    Returns the path written.  The sidecar records the *intended*
    content's digest and is written before the rename: after an injected
    (or real) torn write, the sidecar disagrees with the file, which is
    precisely what lets the loader refuse to trust it.
    """
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_bytes(data)
    if checksum:
        checksum_path(path).write_text(_digest(data) + "\n")
    _maybe_truncate(temporary, plan, site_context=path.name)
    os.replace(temporary, path)
    return path


def atomic_write_text(
    path: Path | str,
    text: str,
    plan: FaultPlan | None = None,
    checksum: bool = True,
) -> Path:
    return atomic_write(path, text.encode(), plan=plan, checksum=checksum)


def finalize_atomic(
    temporary: Path | str,
    path: Path | str,
    plan: FaultPlan | None = None,
) -> Path:
    """Promote a fully written temporary file to ``path``.

    For writers that produce their bytes through another API (e.g.
    ``np.savez``) into a temporary sibling: records the temporary's
    digest as ``path``'s sidecar, applies any injected torn write, and
    renames.  The digest is of the *intended* bytes, so an injected
    truncation is detected on load.
    """
    temporary, path = Path(temporary), Path(path)
    checksum_path(path).write_text(_digest(temporary.read_bytes()) + "\n")
    _maybe_truncate(temporary, plan, site_context=path.name)
    os.replace(temporary, path)
    return path


def verify_checksum(path: Path | str) -> bool:
    """Check ``path`` against its sidecar.

    Returns True when the sidecar exists and matches, False when there
    is no sidecar (legacy artifact — nothing to verify), and raises
    :class:`CorruptArtifactError` on a mismatch.
    """
    path = Path(path)
    sidecar = checksum_path(path)
    if not sidecar.exists():
        return False
    expected = sidecar.read_text().strip()
    actual = _digest(path.read_bytes())
    if actual != expected:
        raise CorruptArtifactError(
            path, f"sha256 {actual[:12]}… != recorded {expected[:12]}…"
        )
    return True
