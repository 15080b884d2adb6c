"""End-to-end command-line interface tests via main()."""

import json

import numpy as np
import pytest

from paulipriv import parse_pauli
from paulipriv.cli import main
from paulipriv.serialize import (
    operator_from_obj,
    operator_to_obj,
    read_json,
    write_json,
)

BASE = ["--no-timestamp"]


def run(capsys, *argv):
    code = main(list(argv) + BASE)
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout):
    return json.loads(stdout)["result"]


def test_group_extend_already_maximal(capsys):
    code, out, _ = run(capsys, "group", "extend", "--gens", "ZI,IZ", "--d", "2")
    assert code == 0
    res = payload(out)
    assert res["size"] == 4
    assert set(res["elements"]) == {"II", "ZI", "IZ", "ZZ"}


def test_group_annihilator_empty_gens_lists_everything(capsys):
    code, out, _ = run(capsys, "group", "annihilator", "--gens", "", "--n", "1")
    assert code == 0
    assert payload(out)["size"] == 4


def test_group_annihilator_requires_n_for_empty_gens(capsys):
    code, _, err = run(capsys, "group", "annihilator", "--gens", "")
    assert code == 3
    assert "--n" in err


def test_group_extend_writes_subgroup_file(capsys, tmp_path):
    from paulipriv import is_abelian
    from paulipriv.serialize import read_subgroup

    path = tmp_path / "group.txt"
    code, _, _ = run(capsys, "group", "extend", "--gens", "", "--n", "3",
                     "--out", str(path))
    assert code == 0
    K = read_subgroup(path)
    assert len(K) == 8 and is_abelian(K)


def test_group_extend_composite_d4(capsys):
    # composite d with 4^8 classes: a maximal Abelian extension exists
    code, out, _ = run(capsys, "group", "extend", "--d", "4", "--gens", "Z1:I:I:I")
    assert code == 0
    res = payload(out)
    assert res["size"] == 256 == len(set(res["elements"]))
    assert "Z1:I:I:I" in res["elements"]
    rows = np.array([
        [*c.x, *c.z]
        for c in (parse_pauli(s, d=4).pauli_class() for s in res["elements"])
    ])
    x, z = rows[:, :4], rows[:, 4:]
    assert not ((x @ z.T - z @ x.T) % 4).any()


def test_group_charmatrix_requires_n(capsys):
    code, _, _ = run(capsys, "group", "charmatrix", "--d", "2")
    assert code == 3


def test_group_charmatrix_size_bound_exit_3(capsys):
    code, _, _ = run(capsys, "group", "charmatrix", "--d", "2", "--n", "8")
    assert code == 3


def test_group_abelian_exit_codes(capsys):
    code, out, _ = run(capsys, "group", "abelian", "--gens", "ZI,IZ")
    assert code == 0 and payload(out)["abelian"] is True
    code, out, _ = run(capsys, "group", "abelian", "--gens", "XI,ZI")
    assert code == 1 and payload(out)["abelian"] is False


def test_group_charmatrix_csv_matches_table(capsys, tmp_path):
    out_path = tmp_path / "F.csv"
    code, out, _ = run(capsys, "group", "charmatrix", "--d", "3", "--n", "1",
                       "--out", str(out_path))
    assert code == 0
    res = payload(out)
    expected = [
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 2, 2, 2],
        [0, 0, 0, 2, 2, 2, 1, 1, 1],
        [0, 2, 1, 0, 2, 1, 0, 2, 1],
        [0, 2, 1, 1, 0, 2, 2, 1, 0],
        [0, 2, 1, 2, 1, 0, 1, 0, 2],
        [0, 1, 2, 0, 1, 2, 0, 1, 2],
        [0, 1, 2, 1, 2, 0, 2, 0, 1],
        [0, 1, 2, 2, 0, 1, 1, 2, 0],
    ]
    assert res["omega_exponents"] == expected
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "I"
    assert [[int(v) for v in ln.split(",")] for ln in lines[1:]] == expected


def test_channel_from_group_then_apply(capsys, tmp_path):
    chan = tmp_path / "chan.json"
    state = tmp_path / "rho.json"
    outp = tmp_path / "out.json"
    code, _, _ = run(capsys, "channel", "from-group", "--gens", "ZI,IZ",
                     "--out", str(chan))
    assert code == 0
    rho = np.full((4, 4), 0.25, dtype=complex)
    write_json(state, operator_to_obj(rho))
    code, _, _ = run(capsys, "channel", "apply", "--in", str(chan),
                     "--state", str(state), "--out", str(outp))
    assert code == 0
    got = operator_from_obj(read_json(outp))
    # library oracle: the group channel pinches to the diagonal
    assert np.abs(got - np.diag(np.diag(rho))).max() < 1e-12


def test_channel_condexp_scalars_depolarizes(capsys, tmp_path):
    chan = tmp_path / "chan.json"
    state = tmp_path / "rho.json"
    outp = tmp_path / "out.json"
    code, _, _ = run(capsys, "channel", "condexp", "--algebra", "scalars",
                     "--n", "1", "--out", str(chan))
    assert code == 0
    write_json(state, operator_to_obj(np.array([[1, 0], [0, 0]], dtype=complex)))
    code, _, _ = run(capsys, "channel", "apply", "--in", str(chan),
                     "--state", str(state), "--out", str(outp))
    assert code == 0
    assert np.abs(operator_from_obj(read_json(outp)) - np.eye(2) / 2).max() < 1e-10


def test_channel_apply_dimension_mismatch_exit_3(capsys, tmp_path):
    chan = tmp_path / "chan.json"
    state = tmp_path / "rho.json"
    run(capsys, "channel", "from-group", "--gens", "ZI,IZ", "--out", str(chan))
    write_json(state, operator_to_obj(np.eye(2, dtype=complex)))
    code, _, err = run(capsys, "channel", "apply", "--in", str(chan),
                       "--state", str(state))
    assert code == 3
    assert "dimension" in err


def test_channel_choi_equal(capsys, tmp_path):
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    run(capsys, "channel", "from-group", "--gens", "ZI,IZ", "--out", str(c1))
    run(capsys, "channel", "condexp", "--algebra", "delta4", "--out", str(c2))
    code, out, _ = run(capsys, "channel", "choi-equal", "--a", str(c1), "--b", str(c2))
    assert code == 0 and payload(out)["equal"] is True


def test_privacy_quasiorth_named_algebras(capsys):
    code, out, _ = run(capsys, "privacy", "quasiorth",
                       "--a", "delta4", "--b", "II,IX,YY,YZ")
    assert code == 0
    res = payload(out)
    assert res["quasiorthogonal"] is True and res["consistent"] is True
    code, _, _ = run(capsys, "privacy", "quasiorth", "--a", "delta4", "--b", "delta4")
    assert code == 1


def test_privacy_certify_construct(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "privacy", "certify", "--group", "ZI,IZ",
                       "--construct", "--out", str(cert_path))
    assert code == 0
    res = payload(out)
    assert res["verdict"] is True
    rho0 = operator_from_obj(res["rho0"])
    assert np.abs(rho0 - np.eye(4) / 4).max() < 1e-12
    on_disk = read_json(cert_path)
    assert on_disk["verdict"] is True


def test_privacy_certify_identity_channel_fails(capsys):
    code, out, _ = run(capsys, "privacy", "certify", "--channel", "identity",
                       "--n", "2", "--algebra", "II,IX,YY,YZ")
    assert code == 1
    assert payload(out)["verdict"] is False


def test_privacy_certify_channel_file_and_algebra_file(capsys, tmp_path):
    chan = tmp_path / "chan.json"
    run(capsys, "channel", "from-group", "--gens", "ZI,IZ", "--out", str(chan))
    alg_path = tmp_path / "alg.json"
    from paulipriv import span_closure
    from paulipriv.serialize import algebra_to_obj

    alg = span_closure([parse_pauli(s).to_dense() for s in ("II", "IX", "YY", "YZ")])
    write_json(alg_path, algebra_to_obj(alg))
    code, out, _ = run(capsys, "privacy", "certify", "--in", str(chan),
                       "--algebra", str(alg_path))
    assert code == 0
    assert payload(out)["verdict"] is True


def test_demo_phaseflip_transcript(capsys):
    code = main(["demo", "phaseflip", "--format", "text", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "I/4" in out and "max deviation" in out


def test_demo_qutrit(capsys):
    code, out, _ = run(capsys, "demo", "qutrit")
    assert code == 0
    res = payload(out)
    assert res["passed"] is True and len(res["checks"]) == 5


def test_demo_qutrit_perturb_names_failure(capsys):
    code = main(["demo", "qutrit", "--perturb", "--format", "text",
                 "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 1
    assert "conjugation_of_embedded_X" in out


def test_json_determinism(capsys):
    _, out1, _ = run(capsys, "privacy", "certify", "--group", "ZI,IZ", "--construct")
    _, out2, _ = run(capsys, "privacy", "certify", "--group", "ZI,IZ", "--construct")
    assert out1 == out2


def test_seed_and_tolerance_echoed(capsys):
    _, out, _ = run(capsys, "group", "abelian", "--gens", "ZI",
                    "--seed", "7", "--tol", "1e-6")
    doc = json.loads(out)
    assert doc["seed"] == 7 and doc["tolerance"] == 1e-6


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "group", "close", "--gens", "Q%")
    assert code == 2
    assert "error" in err.lower() or "malformed" in err.lower()


def test_unknown_flag_exit_2(capsys):
    assert main(["group", "close", "--bogus"]) == 2


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "channel", "apply", "--in", "/no/such/file.json",
                     "--state", "/none.json")
    assert code == 2


def test_nonabelian_group_channel_exit_3(capsys):
    code, _, err = run(capsys, "channel", "from-group", "--gens", "XI,ZI")
    assert code == 3
    assert "Abelian" in err
