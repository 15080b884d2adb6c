"""File formats: operator/channel/algebra JSON, subgroup files, matrix CSV.

Dense operators are serialized as ``{"n": N, "re": [[...]], "im": [[...]]}``,
channels as ``{"kraus": [operator, ...]}`` and algebras as
``{"basis": [operator, ...]}``.  Subgroup files are plain text: a header line
``d=<d> n=<n>`` followed by one Pauli string per line (phases are ignored on
read and canonicalized away on write).  Character matrices export as CSV of
omega exponents with a header row of class strings.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

from .algebra import Channel, OperatorAlgebra, span_closure
from .errors import FormatError
from .groups import CharacterMatrix, PauliSubgroup, close
from .pauli import parse_pauli
from .privacy import PrivacyCertificate

__all__ = [
    "algebra_from_obj",
    "algebra_to_obj",
    "certificate_to_obj",
    "channel_from_obj",
    "channel_to_obj",
    "character_matrix_to_csv",
    "operator_from_obj",
    "operator_to_obj",
    "read_json",
    "read_subgroup",
    "sha256_of_array",
    "write_json",
    "write_subgroup",
]


def operator_to_obj(op) -> dict:
    m = np.asarray(op, dtype=complex)
    return {
        "n": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def operator_from_obj(obj) -> np.ndarray:
    try:
        n = int(obj["n"])
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad operator object: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise FormatError(
            f"operator object claims n={n} but parts have shapes "
            f"{re.shape} and {im.shape}"
        )
    return re + 1j * im


def channel_to_obj(phi: Channel) -> dict:
    return {"kraus": [operator_to_obj(k) for k in phi.kraus]}


def channel_from_obj(obj) -> Channel:
    try:
        ops = obj["kraus"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad channel object: {exc}") from exc
    if not isinstance(ops, list) or not ops:
        raise FormatError("channel object needs a non-empty kraus list")
    mats = [operator_from_obj(o) for o in ops]
    if len({m.shape for m in mats}) > 1:
        raise FormatError("channel Kraus operators differ in dimension")
    return Channel(np.array(mats))


def algebra_to_obj(alg: OperatorAlgebra) -> dict:
    return {"basis": [operator_to_obj(b) for b in alg.basis]}


def algebra_from_obj(obj) -> OperatorAlgebra:
    try:
        ops = obj["basis"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad algebra object: {exc}") from exc
    if not isinstance(ops, list) or not ops:
        raise FormatError("algebra object needs a non-empty basis list")
    # re-span so sloppy (non-orthonormal, non-closed) bases still load
    return span_closure([operator_from_obj(o) for o in ops])


def certificate_to_obj(cert: PrivacyCertificate) -> dict:
    return {
        "inputs": {
            "channel": cert.channel_description,
            "subject": cert.subject_description,
            "hashes": dict(cert.input_hashes),
        },
        "rho0": operator_to_obj(cert.rho0),
        "max_deviation": cert.max_deviation,
        "tolerance": cert.tolerance,
        "verdict": cert.verdict,
        "per_basis_deviation": list(cert.per_basis),
    }


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def write_subgroup(path, K: PauliSubgroup) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(subgroup_to_text(K))


def subgroup_to_text(K: PauliSubgroup) -> str:
    lines = [f"d={K.d} n={K.n}"]
    lines += [c.to_string() for c in K]
    return "\n".join(lines) + "\n"


def read_subgroup(path) -> PauliSubgroup:
    with open(path, "r", encoding="utf-8") as f:
        return subgroup_from_text(f.read())


def subgroup_from_text(text: str) -> PauliSubgroup:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("d="):
        raise FormatError("subgroup file must start with a 'd=<d> n=<n>' header")
    try:
        parts = dict(p.split("=") for p in lines[0].split())
        d, n = int(parts["d"]), int(parts["n"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad subgroup header {lines[0]!r}") from exc
    classes = []
    for ln in lines[1:]:
        el = parse_pauli(ln, d=d)
        if el.n != n:
            raise FormatError(
                f"line {ln!r} has {el.n} sites but the header says n={n}"
            )
        classes.append(el.pauli_class())
    group = close(classes, d=d, n=n)
    listed = {(c.x, c.z) for c in classes}
    listed.add(((0,) * n, (0,) * n))  # identity may be left implicit
    if group.order != len(listed):  # the closure contains what is listed
        raise FormatError("subgroup file does not list a closed subgroup")
    return group


def character_matrix_to_csv(M: CharacterMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([c.to_string() for c in M.classes])
    for row in M.exponents:
        writer.writerow([int(v) for v in row])
    return buf.getvalue()


def sha256_of_array(arr) -> str:
    m = np.ascontiguousarray(np.asarray(arr, dtype=complex))
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(m.tobytes())
    return h.hexdigest()
