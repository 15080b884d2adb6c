"""File formats: JSON round trips, subgroup files, character-matrix CSV."""

import csv
import io

import numpy as np
import pytest

from paulipriv import (
    Channel,
    FormatError,
    character_matrix,
    check_privatized_algebra,
    close,
    parse_pauli,
    span_closure,
)
from paulipriv.serialize import (
    algebra_from_obj,
    algebra_to_obj,
    certificate_to_obj,
    channel_from_obj,
    channel_to_obj,
    character_matrix_to_csv,
    operator_from_obj,
    operator_to_obj,
    read_subgroup,
    sha256_of_array,
    subgroup_from_text,
    subgroup_to_text,
    write_subgroup,
)


def dense(s, d=2):
    return parse_pauli(s, d=d).to_dense()


def test_operator_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = operator_to_obj(m)
    assert obj["n"] == 3
    assert np.abs(operator_from_obj(obj) - m).max() < 1e-15


def test_operator_bad_objects():
    with pytest.raises(FormatError):
        operator_from_obj({"n": 2, "re": [[1, 0]], "im": [[0, 0]]})
    with pytest.raises(FormatError):
        operator_from_obj({"re": [[1]]})


def test_channel_roundtrip():
    phi = Channel(np.array([dense(s) / 2 for s in ("II", "ZI", "IZ", "ZZ")]))
    obj = channel_to_obj(phi)
    phi2 = channel_from_obj(obj)
    assert np.abs(phi.kraus - phi2.kraus).max() < 1e-15
    with pytest.raises(FormatError):
        channel_from_obj({"kraus": []})


def test_algebra_roundtrip():
    alg = span_closure([dense("IX"), dense("YY")])
    alg2 = algebra_from_obj(algebra_to_obj(alg))
    assert alg2.dim == alg.dim
    for b in alg.basis:
        assert alg2.contains(b)


def test_algebra_loader_respans_sloppy_basis():
    # non-orthonormal, non-closed input still loads as the generated algebra
    obj = {"basis": [operator_to_obj(2.0 * dense("IX"))]}
    alg = algebra_from_obj(obj)
    assert alg.dim == 2  # identity adjoined, span of I and IX


def test_certificate_schema():
    phi = Channel(np.array([dense(s) / 2 for s in ("II", "ZI", "IZ", "ZZ")]))
    alg = span_closure([dense(s) for s in ("II", "IX", "YY", "YZ")])
    cert = check_privatized_algebra(
        phi, alg, input_hashes={"channel": sha256_of_array(phi.kraus)}
    )
    obj = certificate_to_obj(cert)
    assert set(obj) == {
        "inputs", "rho0", "max_deviation", "tolerance", "verdict",
        "per_basis_deviation",
    }
    assert obj["verdict"] is True
    assert obj["inputs"]["hashes"]["channel"] == sha256_of_array(phi.kraus)
    assert len(obj["per_basis_deviation"]) == alg.dim


def test_sha256_deterministic():
    m = dense("XX")
    assert sha256_of_array(m) == sha256_of_array(m.copy())
    assert sha256_of_array(m) != sha256_of_array(dense("ZZ"))


def test_subgroup_text_roundtrip():
    K = close([parse_pauli("ZI").pauli_class(), parse_pauli("IZ").pauli_class()])
    text = subgroup_to_text(K)
    lines = text.strip().splitlines()
    assert lines[0] == "d=2 n=2"
    assert set(lines[1:]) == {"II", "ZI", "IZ", "ZZ"}
    assert subgroup_from_text(text) == K


def test_subgroup_file_roundtrip(tmp_path):
    K = close([parse_pauli("X2Z1:I", d=3).pauli_class(),
               parse_pauli("I:X1Z1", d=3).pauli_class()])
    path = tmp_path / "group.txt"
    write_subgroup(path, K)
    assert read_subgroup(path) == K


def test_subgroup_phases_ignored_on_read():
    text = "d=2 n=2\nII\n-ZI\n+iIZ\nZZ\n"
    K = subgroup_from_text(text)
    assert {c.to_string() for c in K} == {"II", "ZI", "IZ", "ZZ"}


def test_subgroup_file_errors():
    with pytest.raises(FormatError):
        subgroup_from_text("XX\nZZ\n")  # missing header
    with pytest.raises(FormatError):
        subgroup_from_text("d=2 n=2\nXXX\n")  # wrong site count
    with pytest.raises(FormatError):
        subgroup_from_text("d=2 n=2\nZI\nIX\n")  # not closed (missing ZX)
    z_lines = "".join("I" * i + "Z" + "I" * (19 - i) + "\n" for i in range(20))
    with pytest.raises(FormatError, match="closed subgroup"):
        subgroup_from_text("d=2 n=20\n" + z_lines)  # 20 of the 2^20 classes


def test_character_matrix_csv():
    M = character_matrix(3, 1)
    text = character_matrix_to_csv(M)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["I", "X1", "X2", "Z1", "X1Z1", "X2Z1", "Z2", "X1Z2", "X2Z2"]
    parsed = [[int(v) for v in row] for row in rows[1:]]
    assert parsed == M.exponents.tolist()
