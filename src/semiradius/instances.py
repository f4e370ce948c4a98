"""Instance files: one JSON document per seed matrix plus named operands.

Matrices are stored as separate real and imaginary nested row-major
arrays of doubles.  Values round-trip exactly: the writer refuses
non-finite entries and the shortest-repr doubles Python emits parse back
to the same bits.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import BadConfig, DimensionMismatch, ParseError
from .space import SemiHilbertSpace, build_space


def content_seed(*arrays: np.ndarray) -> int:
    """Stable 64-bit seed derived from the exact bytes of the arrays."""
    digest = hashlib.sha256()
    for M in arrays:
        A = np.ascontiguousarray(np.asarray(M, dtype=np.complex128))
        digest.update(str(A.shape).encode())
        digest.update(A.tobytes())
    return int.from_bytes(digest.digest()[:8], "little")


def _matrix_to_json(M: np.ndarray) -> dict:
    A = np.asarray(M, dtype=np.complex128)
    if not np.all(np.isfinite(A.view(np.float64))):
        raise BadConfig("refusing to store non-finite matrix entries")
    return {"re": A.real.tolist(), "im": A.imag.tolist()}


def _part_from_json(obj, where: str, part: str) -> np.ndarray:
    rows = obj.get(part)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{where}.{part} must be a list of rows")
    try:
        out = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}.{part} has ragged or non-numeric rows: {exc}") from None
    if out.ndim != 2:
        raise ParseError(f"{where}.{part} must be two-dimensional")
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{where}.{part} contains non-finite values")
    return out


def _matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object with 're' and 'im'")
    re = _part_from_json(obj, where, "re")
    im = _part_from_json(obj, where, "im")
    if re.shape != im.shape:
        raise ParseError(f"{where}.re shape {re.shape} differs from {where}.im shape {im.shape}")
    # Assigned part by part: re + 1j * im would turn an imaginary -0.0 into
    # +0.0, and with it the content seed of the instance.
    M = np.empty(re.shape, dtype=np.complex128)
    M.real, M.imag = re, im
    return M


def write_instance(path, space: SemiHilbertSpace, operators: Mapping[str, np.ndarray]) -> None:
    """Store the seed matrix and operands of one evaluated instance."""
    ops = {}
    for name in sorted(operators):
        M = np.asarray(operators[name], dtype=np.complex128)
        if M.shape != (space.dim, space.dim):
            raise DimensionMismatch(
                f"operator {name!r} has shape {M.shape}, seed is {space.dim}x{space.dim}"
            )
        ops[name] = _matrix_to_json(M)
    doc = {
        "dim": space.dim,
        "cutoff": space.cutoff,
        "A": _matrix_to_json(space.matrix),
        "operators": ops,
    }
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def read_instance(path) -> tuple[SemiHilbertSpace, dict[str, np.ndarray]]:
    """Rebuild the space and operand matrices stored by ``write_instance``."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read instance file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in instance file: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("instance document must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    cutoff = doc.get("cutoff")
    if not isinstance(cutoff, (int, float)) or isinstance(cutoff, bool) or not 0.0 <= float(cutoff) < 1.0:
        raise ParseError(f"cutoff must be a number in [0, 1), got {cutoff!r}")
    A = _matrix_from_json(doc.get("A"), "A")
    if A.shape != (dim, dim):
        raise ParseError(f"A has shape {A.shape}, expected ({dim}, {dim})")
    raw = doc.get("operators")
    if not isinstance(raw, dict):
        raise ParseError("operators must be an object of named matrices")
    operators: dict[str, np.ndarray] = {}
    for name, obj in raw.items():
        M = _matrix_from_json(obj, f"operators.{name}")
        if M.shape != (dim, dim):
            raise ParseError(f"operators.{name} has shape {M.shape}, expected ({dim}, {dim})")
        operators[name] = M
    space = build_space(A, cutoff=float(cutoff))
    return space, operators
