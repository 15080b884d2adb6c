"""End-to-end command-line interface tests via main()."""

import argparse
import contextlib
import io
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipriv import channel_from_subgroup, close, diagonal_algebra, parse_pauli
from paulipriv.cli import build_parser, main
from paulipriv.serialize import (
    algebra_to_obj,
    channel_to_obj,
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


# The options of each command besides -h: the ones its handler reads, and no other.
COMMON = {"--format", "--no-timestamp"}
OPTIONS = {
    "group close": COMMON | {"--d", "--n", "--out", "--gens"},
    "group abelian": COMMON | {"--d", "--n", "--gens"},
    "group annihilator": COMMON | {"--d", "--n", "--out", "--gens"},
    "group extend": COMMON | {"--d", "--n", "--out", "--gens"},
    "group charmatrix": COMMON | {"--d", "--n", "--out"},
    "channel from-group": COMMON | {"--d", "--n", "--out", "--gens"},
    "channel condexp": COMMON | {"--d", "--n", "--out", "--algebra"},
    "channel apply": COMMON | {"--out", "--in", "--state"},
    "channel choi-equal": COMMON | {"--tol", "--a", "--b"},
    "privacy quasiorth": COMMON | {"--d", "--n", "--tol", "--a", "--b"},
    "privacy certify": COMMON | {"--d", "--n", "--tol", "--out", "--group", "--channel",
                                 "--in", "--algebra", "--construct"},
    "demo phaseflip": COMMON,
    "demo qutrit": COMMON | {"--perturb"},
}

# A valid argv for each command; {chan} and {rho} name the files of `files`.
MINIMAL = {
    "group close": ["--gens", "ZI"],
    "group abelian": ["--gens", "ZI"],
    "group annihilator": ["--gens", "ZI"],
    "group extend": ["--gens", "ZI"],
    "group charmatrix": ["--n", "1"],
    "channel from-group": ["--gens", "ZI,IZ"],
    "channel condexp": ["--algebra", "delta4"],
    "channel apply": ["--in", "{chan}", "--state", "{rho}"],
    "channel choi-equal": ["--a", "{chan}", "--b", "{chan}"],
    "privacy quasiorth": ["--a", "delta4", "--b", "II,IX,YY,YZ"],
    "privacy certify": ["--group", "ZI,IZ", "--construct"],
    "demo phaseflip": [],
    "demo qutrit": [],
}


@pytest.fixture
def files(tmp_path):
    """JSON files: the group channel of <ZI, IZ>, the state I/4, the diagonal algebra of
    M_4, and a one-qubit identity channel with one NaN entry."""
    chan, rho, alg = tmp_path / "chan.json", tmp_path / "rho.json", tmp_path / "alg.json"
    write_json(chan, channel_to_obj(channel_from_subgroup(
        close([parse_pauli(s).pauli_class() for s in ("ZI", "IZ")]))))
    write_json(rho, operator_to_obj(np.eye(4, dtype=complex) / 4))
    write_json(alg, algebra_to_obj(diagonal_algebra(4)))
    nan = tmp_path / "nan.json"
    write_json(nan, {"kraus": [{"n": 2, "re": [[1.0, float("nan")], [0.0, 1.0]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}]})
    return {"chan": str(chan), "rho": str(rho), "alg": str(alg), "nan": str(nan)}


def command_argv(command, files):
    return [*command.split(), *(a.format(**files) for a in MINIMAL[command])]


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_command_takes_only_the_flags_it_reads():
    options = {
        f"{topic} {action}": {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for topic, tp in _subcommands(build_parser()).items()
        for action, p in _subcommands(tp).items()
    }
    assert options == OPTIONS


@pytest.mark.parametrize("command", OPTIONS)
def test_every_command_with_out_writes_it(capsys, files, tmp_path, command):
    path = tmp_path / "written"
    code, _, err = run(capsys, *command_argv(command, files), "--out", str(path))
    if "--out" in OPTIONS[command]:
        assert code in (0, 1) and path.stat().st_size > 0
    else:
        assert code == 2 and "unrecognized arguments: --out" in err
        assert not path.exists()


@pytest.mark.parametrize("argv, flag", [
    # one channel source: --group, --channel or --in
    (["privacy", "certify", "--channel", "identity", "--n", "2", "--group", "ZI,IZ",
      "--algebra", "II,IX,YY,YZ"], "--group"),
    (["privacy", "certify", "--in", "{chan}", "--group", "XI", "--algebra", "IX"], "--group"),
    # one subject: --algebra or --construct, and --construct's certificate takes no --tol
    (["privacy", "certify", "--group", "ZI,IZ", "--construct", "--algebra", "delta4"],
     "--algebra"),
    (["privacy", "certify", "--group", "ZI,IZ", "--construct", "--tol", "0.5"], "--tol"),
    # --out on the commands that write nothing
    (["group", "abelian", "--gens", "ZI", "--out", "{chan}.out"], "--out"),
    (["channel", "choi-equal", "--a", "{chan}", "--b", "{chan}", "--out", "{chan}.out"],
     "--out"),
    (["privacy", "quasiorth", "--a", "delta4", "--b", "delta4", "--out", "{chan}.out"],
     "--out"),
    (["demo", "phaseflip", "--out", "{chan}.out"], "--out"),
    (["demo", "qutrit", "--out", "{chan}.out"], "--out"),
    # flags a command does not read, abbreviations included
    (["channel", "condexp", "--algebra", "IX,YY", "--seed", "7"], "--seed"),
    (["group", "abelian", "--gens", "ZI", "--tol", "1e-6"], "--tol"),
    (["demo", "qutrit", "--n", "2"], "--n"),  # not read as --no-timestamp
    # --construct reads its channel from --group only
    (["privacy", "certify", "--construct", "--in", "{chan}"], "--in"),
    (["privacy", "certify", "--construct", "--channel", "identity", "--n", "2"], "--channel"),
    # no command takes --seed: demo phaseflip prints an exact certificate
    (["demo", "phaseflip", "--seed", "7"], "--seed"),
])
def test_conflicting_or_unread_flag_exit_2(capsys, files, argv, flag):
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize("argv", [
    ["group", "close", "--gens", "ZI", "--n", "5"],
    ["group", "abelian", "--gens", "ZI,IZ", "--n", "3"],
    ["group", "annihilator", "--d", "3", "--gens", "X1:I", "--n", "1"],
    ["group", "extend", "--gens", "ZI", "--n", "1"],
    ["channel", "from-group", "--gens", "ZI", "--n", "3"],
    ["channel", "condexp", "--algebra", "delta4", "--n", "3"],
    ["channel", "condexp", "--algebra", "IX,YY", "--n", "1"],
    ["channel", "condexp", "--algebra", "{alg}", "--d", "3", "--n", "2"],
    ["privacy", "quasiorth", "--a", "delta4", "--b", "delta4", "--d", "5", "--n", "7"],
    ["privacy", "quasiorth", "--a", "delta4", "--b", "II,IX,YY,YZ", "--n", "3"],
    ["privacy", "certify", "--group", "ZI,IZ", "--construct", "--n", "3"],
    ["privacy", "certify", "--group", "ZI,IZ", "--algebra", "II,IX,YY,YZ", "--n", "1"],
    ["privacy", "certify", "--in", "{chan}", "--algebra", "{alg}", "--n", "3"],
    ["privacy", "certify", "--channel", "identity", "--n", "2", "--algebra", "delta8"],
])
def test_n_that_disagrees_with_the_input_exit_2(capsys, files, argv):
    # --n must give d^n = N for the N of every generator list and algebra it comes with
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 2 and out == ""
    assert "argument --n" in err


@pytest.mark.parametrize("argv", [
    ["group", "close", "--gens", "ZI"],
    ["channel", "condexp", "--algebra", "delta4"],
    ["privacy", "quasiorth", "--a", "delta4", "--b", "II,IX,YY,YZ"],
    ["privacy", "certify", "--group", "ZI,IZ", "--construct"],
])
def test_n_that_agrees_with_the_input_changes_nothing(capsys, argv):
    assert run(capsys, *argv) == run(capsys, *argv, "--n", "2")


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


SITE_ZS_64 = ",".join("I" * i + "Z" + "I" * (63 - i) for i in range(64))


def test_group_of_order_2_to_the_64_is_built_but_not_enumerated(capsys):
    code, out, _ = run(capsys, "group", "abelian", "--gens", SITE_ZS_64)
    assert code == 0 and payload(out) == {"abelian": True, "size": 2**64}
    assert '"size": 18446744073709551616' in out
    code, _, err = run(capsys, "group", "close", "--gens", SITE_ZS_64)
    assert code == 3 and "above the bound 1000000" in err
    code, _, err = run(capsys, "privacy", "certify", "--group", SITE_ZS_64, "--construct")
    assert code == 3 and "rho0" in err


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


def test_channel_condexp_is_deterministic(capsys, tmp_path):
    # the decomposition uses its own fixed seed, so reruns write the same bytes
    files = []
    for i in range(2):
        files.append(tmp_path / f"ce_{i}.json")
        code, _, _ = run(capsys, "channel", "condexp", "--algebra", "IX,YY",
                         "--out", str(files[-1]))
        assert code == 0
    assert files[0].read_bytes() == files[1].read_bytes()


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


PHASE_FLIP_ALGEBRA = "1bb3c60dc5291034b9bacc26a41d0284af8b84a91c998cd3a07a8dfd09c2f879"


# Qubit cases only: their entries 0, 0.25, 0.5 and +-1 are exact, so the hashes hold on
# every platform.  Both subjects are the span of II, IX, YY and YZ.
@pytest.mark.parametrize("subject, inputs", [
    (["--construct"], {
        "channel": "group channel from 'ZI,IZ'", "subject": "constructed private algebra",
        "hashes": {"algebra": PHASE_FLIP_ALGEBRA, "group":
                   "0377b0835d75cbd8b620f211b79cfa7b29b5247846a3aaf9b92c699bb1f0c5f8"}}),
    (["--algebra", "IX,YY"], {
        "channel": "group channel from 'ZI,IZ'", "subject": "algebra 'IX,YY'",
        "hashes": {"algebra": PHASE_FLIP_ALGEBRA, "channel":
                   "067e6091a87ac5e03ab1150015a443854313024b039050ea586aeb4ac04da92b"}}),
], ids=["construct", "algebra"])
def test_privacy_certify_qubit_bytes_pinned(capsys, subject, inputs):
    code, out, _ = run(capsys, "privacy", "certify", "--group", "ZI,IZ", *subject)
    rho0 = {"n": 4, "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
    result = {"inputs": inputs, "max_deviation": 0.0, "per_basis_deviation": [0.0] * 4,
              "rho0": rho0, "tolerance": 1e-08, "verdict": True}
    envelope = {"command": "privacy certify", "result": result, "tolerance": 1e-08}
    assert code == 0
    assert out == json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def test_privacy_certify_construct_qutrits(capsys):
    code, out, _ = run(capsys, "privacy", "certify", "--d", "3",
                       "--group", "X2Z1:I,I:X1Z1", "--construct")
    assert code == 0
    res = payload(out)
    assert res["verdict"] is True and len(res["per_basis_deviation"]) == 9


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


def test_demo_phaseflip_bytes_pinned(capsys):
    code, out, _ = run(capsys, "demo", "phaseflip")
    envelope = {"command": "demo phaseflip", "result": {"max_deviation": 0.0, "passed": True}}
    assert code == 0
    assert out == json.dumps(envelope, sort_keys=True, indent=2) + "\n"


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


def test_seed_and_tolerance_echoed(capsys, files):
    # tolerance is echoed by the commands that read --tol, and only by them; no seed is
    for command in OPTIONS:
        code, out, _ = run(capsys, *command_argv(command, files))
        assert code in (0, 1), command
        doc = json.loads(out)
        assert "seed" not in doc, command
        assert ("tolerance" in doc) == ("--tol" in OPTIONS[command]), command
    _, out, _ = run(capsys, *command_argv("channel choi-equal", files), "--tol", "1e-6")
    assert json.loads(out)["tolerance"] == 1e-6
    _, out, _ = run(capsys, "privacy", "certify", "--group", "ZI,IZ", "--algebra", "delta4",
                    "--tol", "1e-6")
    assert json.loads(out)["tolerance"] == 1e-6
    # the exact certificate records the default, and so does the envelope
    _, out, _ = run(capsys, *command_argv("privacy certify", files))
    assert json.loads(out)["tolerance"] == json.loads(out)["result"]["tolerance"] == 1e-8


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


def test_nonabelian_group_channel_exit_0_but_construct_exit_3(capsys):
    code, out, _ = run(capsys, "channel", "from-group", "--gens", "XI,ZI")
    assert code == 0 and payload(out) == {"N": 4, "kraus_count": 4}
    code, _, err = run(capsys, "privacy", "certify", "--group", "XI,ZI", "--construct")
    assert code == 3 and "Abelian" in err


def test_out_naming_a_directory_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "group", "close", "--gens", "ZI", "--out", str(tmp_path))
    assert code == 2
    assert "input error" in err


def test_undecodable_json_exit_2(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "channel", "condexp", "--algebra", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("argv", [
    ["channel", "condexp", "--algebra", "full", "--n", "1", "--d", "-2"],
    ["privacy", "certify", "--channel", "identity", "--n", "-1", "--algebra", "scalars"],
    ["group", "close", "--gens", "", "--n", "0"],
    ["privacy", "quasiorth", "--a", "delta2", "--b", "delta2", "--d", "1"],
])
def test_bad_d_n_or_seed_exit_3(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "need --d >= 2 and --n >= 1" in err


@pytest.mark.parametrize("argv, named", [
    # the identity channel does not privatize M_4, nor is delta4 quasiorthogonal to itself
    (["privacy", "certify", "--channel", "identity", "--n", "2", "--algebra", "full",
      "--tol", "inf"], "--tol"),
    (["privacy", "certify", "--in", "{chan}", "--algebra", "delta4", "--tol", "nan"], "--tol"),
    (["privacy", "quasiorth", "--a", "delta4", "--b", "delta4", "--tol", "inf"], "--tol"),
    (["privacy", "quasiorth", "--a", "delta4", "--b", "II,IX", "--tol", "-1"], "--tol"),
    (["channel", "choi-equal", "--a", "{chan}", "--b", "{chan}", "--tol", "nan"], "--tol"),
    (["privacy", "certify", "--in", "{nan}", "--algebra", "scalars", "--n", "1"], "non-finite"),
    (["channel", "choi-equal", "--a", "{nan}", "--b", "{nan}"], "non-finite"),
    (["channel", "apply", "--in", "{nan}", "--state", "{rho}"], "non-finite"),
])
def test_meaningless_tol_or_non_finite_channel_exit_3(capsys, files, argv, named):
    code, _, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 3 and named in err


def test_linalg_error_exit_3(capsys, tmp_path, monkeypatch):
    path = tmp_path / "alg.json"
    write_json(path, {"basis": [operator_to_obj(np.diag([1.0, -1.0]))]})

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    code, _, err = run(capsys, "channel", "condexp", "--algebra", str(path))
    assert code == 3
    assert "SVD did not converge" in err


QUQUART_SITES = ",".join(
    ":".join(p if j == i else "I" for j in range(4)) for i in range(4) for p in ("X1", "Z1")
)


@pytest.mark.parametrize("argv", [
    ["channel", "condexp", "--algebra", "full", "--d", "4", "--n", "4"],
    ["channel", "condexp", "--algebra", "delta100000"],
    # all 4^8 = 65536 classes of four ququart sites, each a 256 x 256 matrix
    ["channel", "condexp", "--algebra", QUQUART_SITES, "--d", "4"],
    ["channel", "condexp", "--algebra", "scalars", "--n", "13"],
    ["privacy", "certify", "--channel", "identity", "--n", "13", "--algebra", "scalars"],
])
def test_dense_size_bound_exit_3_without_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "above the limit of 16777216" in err
    assert peak < 64 * 2**20


DIAGONAL_QUQUARTS = ",".join(
    ":".join("Z1" if j == i else "I" for j in range(5)) for i in range(5)
)


@pytest.mark.parametrize("argv", [
    ["channel", "condexp", "--algebra", QUQUART_SITES, "--d", "4"],
    # |K| = 4^5 Kraus operators of size 1024 x 1024
    ["privacy", "certify", "--group", DIAGONAL_QUQUARTS, "--d", "4",
     "--algebra", "scalars"],
    # the algebra's basis is refused before its N = 256 is compared with 4^3
    ["privacy", "quasiorth", "--a", QUQUART_SITES, "--b", "scalars", "--d", "4", "--n", "3"],
])
def test_subgroup_size_bound_names_the_integer_route(capsys, argv):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "check_privatized_subgroup" in err and "annihilator" in err
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# Fuzz: any argv over the four topics exits 0-3 without raising
# ---------------------------------------------------------------------------

def _op(n, value=1.0):
    return operator_to_obj(np.eye(n) * value)


FUZZ_JSON = {
    "op.json": _op(2, 0.5),
    "chan.json": {"kraus": [_op(2)]},
    "alg.json": {"basis": [_op(2)]},
    "list.json": [1, 2],
    "ragged.json": {"n": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},
    "inf_n.json": {"n": float("inf"), "re": [[1]], "im": [[0]]},
    "mixed_kraus.json": {"kraus": [_op(2), _op(1)]},
    "mixed_basis.json": {"basis": [_op(2), _op(1)]},
    "empty_kraus.json": {"kraus": []},
    "nested.json": {"kraus": {"n": 2}, "basis": "I"},
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, obj in FUZZ_JSON.items():
        (root / name).write_text(json.dumps(obj))
    (root / "garbage.json").write_text("{not json")
    (root / "binary.json").write_bytes(b"\xff\xfe{")
    (root / "subdir.json").mkdir()
    return root


BAD_TOKENS = ["Q%", "X9", "w.X", "X1Z", ":", "XZ:", "+-X", "I:Z", "w1.X1:I", " "]


@st.composite
def pauli_list(draw, d, wide=False):
    # site counts with d^n <= 16, so that dense algebras stay small.  `wide` draws
    # qubit groups on up to 64 sites; above 6 sites it takes at most min(13, 2n - 20)
    # generators, so a group has at most 2^13 elements and its annihilator at least
    # 4^n / 2^(2n - 20) = 2^20 > 10^6, which is refused before the solve.  A maximal
    # extension has 2^n elements: printed up to 19 sites, refused from 20 on.  On at
    # most 6 sites no group has more than 4^6 elements.
    sites = {2: 4, 3: 2, 4: 2}[d]
    n = draw(st.integers(1, 6) | st.integers(12, 64) if wide and d == 2
             else st.integers(1, sites))
    count = 4 if n <= 6 else min(13, 2 * n - 20)
    if d == 2:
        good = st.text("IXYZ", min_size=n, max_size=n)
    else:
        site = st.sampled_from(["I", "X1", "Z1", "X1Z2", "X2Z1", "Z3"])
        good = st.lists(site, min_size=n, max_size=n).map(":".join)
    tokens = draw(st.lists(st.one_of(good, good, good, st.sampled_from(BAD_TOKENS)),
                           max_size=count))
    return ",".join(tokens)


# the value given to a flag that the drawn command does not take; privacy certify takes
# all four common flags, so --gens stands in for the --seed that no command takes now
LACKED_VALUE = {"--d": "2", "--n": "1", "--tol": "1e-8", "--out": "x.json", "--gens": "ZI"}


@st.composite
def fuzz_argv(draw, root):
    """(argv, lacked): argv for one command with the flags it takes, and in at
    most one draw in six one more flag it does not take, named by ``lacked``."""
    # d and n in -2..4; at most one of the two invalid
    d = draw(st.integers(2, 4))
    n = draw(st.none() | st.integers(1, 4))
    if n is not None and d**n > 16:
        n = 1  # keep dense algebras small
    bad = draw(st.sampled_from([None, None, None, "d", "n"]))
    if bad == "d":
        d = draw(st.integers(-2, 1))
    elif bad == "n":
        n = draw(st.integers(-2, 0))
    files = [str(root / name)
             for name in [*FUZZ_JSON, "garbage.json", "binary.json", "subdir.json"]]
    files.append(str(root / "missing.json"))
    some_file = st.sampled_from(files)
    algebra = st.sampled_from(["scalars", "full", "delta0", "delta2", "delta4"])
    algebra = algebra | some_file | pauli_list(max(d, 2))
    gens = pauli_list(max(d, 2))
    topic = draw(st.sampled_from(["group", "channel", "privacy", "demo"]))
    if topic == "group":
        action = draw(st.sampled_from(["close", "abelian", "annihilator", "extend",
                                       "charmatrix"]))
        argv = ["group", action]
        if action != "charmatrix":
            argv += ["--gens", draw(pauli_list(max(d, 2), wide=True))]
    elif topic == "channel":
        action = draw(st.sampled_from(["from-group", "condexp", "apply", "choi-equal"]))
        argv = ["channel", action]
        argv += {
            "from-group": lambda: ["--gens", draw(gens)],
            "condexp": lambda: ["--algebra", draw(algebra)],
            "apply": lambda: ["--in", draw(some_file), "--state", draw(some_file)],
            "choi-equal": lambda: ["--a", draw(some_file), "--b", draw(some_file)],
        }[action]()
    elif topic == "privacy":
        if draw(st.booleans()):
            argv = ["privacy", "quasiorth", "--a", draw(algebra), "--b", draw(algebra)]
        else:
            argv = ["privacy", "certify"]
            source = draw(st.sampled_from(["group", "construct", "identity", "in", "none"]))
            argv += {
                "group": lambda: ["--group", draw(gens)],
                "construct": lambda: ["--group", draw(gens), "--construct"],
                "identity": lambda: ["--channel", "identity"],
                "in": lambda: ["--in", draw(some_file)],
                "none": lambda: [],
            }[source]()
            if source != "construct" and draw(st.booleans()):
                argv += ["--algebra", draw(algebra)]
    else:
        argv = ["demo", draw(st.sampled_from(["phaseflip", "qutrit"]))]
    takes = OPTIONS[" ".join(argv[:2])]
    for flag, value in (("--d", d), ("--n", n)):
        if flag in takes and value is not None:
            argv += [flag, str(value)]
    if "--out" in takes and draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from([str(root), str(root / "no" / "out.json")]))]
    lacked = None
    if draw(st.sampled_from([False] * 5 + [True])):
        lacked = draw(st.sampled_from([f for f in LACKED_VALUE if f not in takes]))
        argv += [lacked, LACKED_VALUE[lacked]]
    return argv, lacked


def single_site_zs(n):
    return ",".join("I" * i + "Z" + "I" * (n - 1 - i) for i in range(n))


# a huge --n: d^n has more digits than str() prints, or takes minutes to compute
LARGE_N = [
    ("privacy quasiorth --a scalars --b full --n 20000", 3),
    ("channel condexp --algebra full --n 20000", 3),
    ("privacy certify --channel identity --n 20000 --algebra scalars", 3),
    ("group charmatrix --n 20000", 3),
    ("group close --d 3 --gens X1:I --n 100000000", 2),
    ("group annihilator --n 20000", 3),
    ("group extend --n 20000", 3),
    ("group extend --d 3 --n 100000000", 3),
]


@pytest.mark.parametrize("argv,expected", LARGE_N + [
    ("privacy quasiorth --a scalars --b full --d 3 --n 100000000", 3),
    ("group charmatrix --d 3 --n 100000000", 3),
    ("channel from-group --n 20000", 3),
])
def test_large_n_is_refused_at_once(capsys, argv, expected):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 3.0
    assert code == expected and "Traceback" not in err
    assert ("disagrees with N = 9" if expected == 2 else "precondition violated") in err


# a huge composite d: each Howell pivot's unit is solved for, not found by scanning Z_d
HUGE_D = [
    ("group abelian --d 1000000000 --gens X6", 0),
    ("group abelian --d 1000000000 --gens X2,X5", 0),
    ("group close --d 1000000000 --gens X6", 3),
    ("group annihilator --d 1000000000 --gens X6", 3),
    ("privacy certify --d 1000000000 --group X6 --construct", 3),
    ("channel from-group --d 1000000000 --gens X6", 3),
    # 2n (d - 1)^2 >= 2^63: int64 chi sums would wrap, so any d this large is refused
    ("group abelian --d 4000000000 --gens X3Z3999999999,X1Z1333333333", 3),
]


@pytest.mark.parametrize("argv,expected", HUGE_D)
def test_huge_composite_d_answers_at_once(capsys, argv, expected):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 3.0
    assert code == expected and "Traceback" not in err


def test_fuzz_main_exits_0_to_3_without_raising(fuzz_dir):
    # derandomized draws seldom build a valid large group; these reach exit 0
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fuzz_argv(fuzz_dir))
    @example((LARGE_N[0][0].split(), None))
    @example((LARGE_N[1][0].split(), None))
    @example((LARGE_N[2][0].split(), None))
    @example((LARGE_N[3][0].split(), None))
    @example((LARGE_N[4][0].split(), None))
    @example((["group", "abelian", "--gens", single_site_zs(64)], None))
    @example((["group", "close", "--gens", single_site_zs(12)], None))
    @example((["group", "annihilator", "--gens", single_site_zs(12)], None))
    @example((["group", "extend", "--gens", single_site_zs(6)], None))
    @example((["group", "close", "--d", "3", "--gens", "X1:Z1:I,Z1:I:X2"], None))
    def check(case):
        argv, lacked = case
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + BASE)
        assert "Traceback" not in err.getvalue()
        if lacked:
            assert code == 2 and f"unrecognized arguments: {lacked}" in err.getvalue()
        else:
            # every flag was taken, so the argv reached its handler
            assert code in (0, 1, 2, 3) and "usage:" not in err.getvalue(), (argv, code)

    check()
