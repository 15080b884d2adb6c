"""Command-line interface.

Subcommand groups: ``group`` (closure, commutativity, annihilators, maximal
extension, character matrices), ``channel`` (group channels, conditional
expectations, state evolution, Choi equality), ``privacy`` (quasiorthogonality
and privatization certificates) and ``demo`` (the two worked constructions).
Each command takes only the flags it reads and refuses any other; ``privacy
certify`` takes one of --group, --channel and --in, and one of --algebra and
--construct.

Exit codes: 0 success, 1 a verified-false verdict, 2 input, parse or file
error (including an unknown or conflicting flag), 3 precondition violation
(including a failed dense decomposition).  JSON output is deterministic given
the inputs; --no-timestamp suppresses the timestamp field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import serialize
from .algebra import (
    Channel,
    apply_channel,
    choi_equal,
    conditional_expectation,
    diagonal_algebra,
    full_matrix_algebra,
    scalar_algebra,
)
from .constructions import (
    channel_from_subgroup,
    phase_flip_demo,
    private_algebra_for_abelian,
    subgroup_algebra,
    two_qutrit_demo,
)
from .errors import FormatError, NumericalAmbiguityError, PreconditionError
from .groups import annihilator, character_matrix, close, extend_to_maximal, is_abelian
from .pauli import parse_pauli
from .privacy import check_privatized_algebra, quasiorth_condition_suite

_DEFAULT_SEED = 2016
_DEFAULT_TOL = 1e-8
_QUASI_TOL = 1e-9


def _parse_gens(text: str, d: int):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    return [parse_pauli(t, d=d).pauli_class() for t in tokens]


def _group_from_args(args) -> "PauliSubgroup":
    gens = _parse_gens(args.gens or "", args.d)
    if gens:
        return close(gens)
    if args.n is None:
        raise PreconditionError("--n is required when --gens is empty")
    return close((), d=args.d, n=args.n)


_NAMED_ALGEBRA_RE = re.compile(r"^delta(\d+)$")


def _algebra_from_arg(text: str, d: int, n: int | None):
    """Resolve an algebra: named (scalars/full/delta<N>), Pauli list, or file."""
    m = _NAMED_ALGEBRA_RE.match(text)
    if m:
        return diagonal_algebra(int(m.group(1)))
    if text in ("scalars", "full"):
        if n is None:
            raise PreconditionError(f"--n is required for the named algebra {text!r}")
        dim = d**n
        return scalar_algebra(dim) if text == "scalars" else full_matrix_algebra(dim)
    if text.endswith(".json"):
        return serialize.algebra_from_obj(serialize.read_json(text))
    elems = [parse_pauli(t.strip(), d=d) for t in text.split(",") if t.strip()]
    if not elems:
        raise FormatError(f"empty algebra description {text!r}")
    return subgroup_algebra(close(elems))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "text":
        out = "\n".join(text_lines) + "\n"
    else:
        envelope = {"command": args.command_path, "result": payload}
        for flag, key in (("seed", "seed"), ("tol", "tolerance")):
            if flag in args:  # only the commands that read the flag echo it
                envelope[key] = getattr(args, flag)
        if not args.no_timestamp:
            envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
        out = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="paulipriv", description=__doc__)
    topics = ap.add_subparsers(dest="topic", required=True)
    actions = {}
    for topic, text in (("group", "subgroup machinery"),
                        ("channel", "channel construction and evolution"),
                        ("privacy", "quasiorthogonality and certificates"),
                        ("demo", "worked constructions")):
        actions[topic] = topics.add_parser(topic, help=text).add_subparsers(
            dest="action", required=True)

    def command(path, handler, *, dn=False, tol=None, seed=False, out=False):
        """One subcommand with the common flags its handler reads."""
        topic, action = path.split()
        p = actions[topic].add_parser(action, allow_abbrev=False)  # --n never means --no-timestamp
        p.set_defaults(handler=handler, command_path=path)
        if dn:
            p.add_argument("--d", type=int, default=2, help="qudit dimension")
            p.add_argument("--n", type=int, default=None, help="site count")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol,
                           help=f"decision tolerance (default {tol:g})")
        if seed:
            p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                           help=f"seed of the random states (default {_DEFAULT_SEED})")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--no-timestamp", action="store_true")
        if out:
            p.add_argument("--out", default=None, help="output file path")
        return p

    for action in ("close", "abelian", "annihilator", "extend"):
        abelian = action == "abelian"  # a verdict, with no subgroup to write
        p = command(f"group {action}", _cmd_abelian if abelian else _cmd_subgroup,
                    dn=True, out=not abelian)
        p.add_argument("--gens", default="", help="comma-separated Pauli strings")
    command("group charmatrix", _cmd_charmatrix, dn=True, out=True)

    p = command("channel from-group", _cmd_from_group, dn=True, out=True)
    p.add_argument("--gens", default="")
    p = command("channel condexp", _cmd_condexp, dn=True, out=True)
    p.add_argument("--algebra", required=True, help="named algebra, Pauli list, or .json file")
    p = command("channel apply", _cmd_apply, out=True)
    p.add_argument("--in", dest="infile", required=True, help="channel JSON")
    p.add_argument("--state", required=True, help="state operator JSON")
    p = command("channel choi-equal", _cmd_choi_equal, tol=_DEFAULT_TOL)
    p.add_argument("--a", required=True, help="first channel JSON")
    p.add_argument("--b", required=True, help="second channel JSON")

    p = command("privacy quasiorth", _cmd_quasiorth, dn=True, tol=_QUASI_TOL)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = command("privacy certify", _cmd_certify, dn=True, out=True)
    p.add_argument("--tol", type=float, default=None,
                   help=f"decision tolerance of --algebra (default {_DEFAULT_TOL:g})")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--group", default=None, help="generators of the Kraus subgroup")
    source.add_argument("--channel", default=None, choices=["identity"],
                        help="named channel instead of --group")
    source.add_argument("--in", dest="infile", default=None, help="channel JSON")
    subject = p.add_mutually_exclusive_group()
    subject.add_argument("--algebra", default=None)
    subject.add_argument("--construct", action="store_true",
                         help="construct the private algebra from the subgroup")

    command("demo phaseflip", _cmd_phaseflip, seed=True)
    p = command("demo qutrit", _cmd_qutrit)
    p.add_argument("--perturb", action="store_true",
                   help="negative control: corrupt one expected phase")
    return ap


def _cmd_subgroup(args) -> int:
    K = _group_from_args(args)
    if args.action == "annihilator":
        K = annihilator(K)
    elif args.action == "extend":
        K = extend_to_maximal(K)
    if args.out:
        serialize.write_subgroup(args.out, K)
    payload = {
        "d": K.d,
        "n": K.n,
        "size": K.order,
        "elements": [c.to_string() for c in K],
    }
    _emit(args, payload, serialize.subgroup_to_text(K).splitlines())
    return 0


def _cmd_abelian(args) -> int:
    K = _group_from_args(args)
    verdict = is_abelian(K)
    _emit(args, {"abelian": verdict, "size": K.order},
          [f"abelian: {verdict} (size {K.order})"])
    return 0 if verdict else 1


def _cmd_charmatrix(args) -> int:
    if args.n is None:
        raise PreconditionError("--n is required for charmatrix")
    M = character_matrix(args.d, args.n)
    csv_text = serialize.character_matrix_to_csv(M)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(csv_text)
    payload = {
        "d": args.d,
        "n": args.n,
        "classes": [c.to_string() for c in M.classes],
        "omega_exponents": M.exponents.tolist(),
    }
    _emit(args, payload, csv_text.splitlines())
    return 0


def _cmd_from_group(args) -> int:
    phi = channel_from_subgroup(_group_from_args(args))
    if args.out:
        serialize.write_json(args.out, serialize.channel_to_obj(phi))
    _emit(args, {"N": phi.N, "kraus_count": len(phi.kraus)},
          [f"channel on {phi.N} dims with {len(phi.kraus)} Kraus operators"])
    return 0


def _cmd_condexp(args) -> int:
    alg = _algebra_from_arg(args.algebra, args.d, args.n)
    phi = conditional_expectation(alg)
    if args.out:
        serialize.write_json(args.out, serialize.channel_to_obj(phi))
    _emit(args, {"N": phi.N, "kraus_count": len(phi.kraus),
                 "algebra_dim": alg.dim},
          [f"conditional expectation on {phi.N} dims, {len(phi.kraus)} Kraus"])
    return 0


def _cmd_apply(args) -> int:
    phi = serialize.channel_from_obj(serialize.read_json(args.infile))
    rho = serialize.operator_from_obj(serialize.read_json(args.state))
    out = apply_channel(phi, rho)
    obj = serialize.operator_to_obj(out)
    if args.out:
        serialize.write_json(args.out, obj)
    _emit(args, {"output": obj}, [np.array_str(out, precision=6)])
    return 0


def _cmd_choi_equal(args) -> int:
    phi1 = serialize.channel_from_obj(serialize.read_json(args.a))
    phi2 = serialize.channel_from_obj(serialize.read_json(args.b))
    verdict = choi_equal(phi1, phi2, tol=args.tol)
    _emit(args, {"equal": verdict}, [f"choi-equal: {verdict}"])
    return 0 if verdict else 1


def _cmd_quasiorth(args) -> int:
    a = _algebra_from_arg(args.a, args.d, args.n)
    b = _algebra_from_arg(args.b, args.d, args.n)
    report = quasiorth_condition_suite(a, b, tol=args.tol)
    payload = {
        "quasiorthogonal": report.verdict,
        "deviations": dict(zip("1234", report.deviations)),
        "verdicts": dict(zip("1234", report.verdicts)),
        "consistent": report.consistent,
    }
    _emit(args, payload, [f"quasiorthogonal: {report.verdict}",
                          f"deviations: {report.deviations}"])
    return 0 if report.verdict else 1


def _certify_channel(args) -> tuple[Channel, str]:
    # argparse admits at most one of --in, --channel and --group
    if args.infile:
        return (
            serialize.channel_from_obj(serialize.read_json(args.infile)),
            f"channel file {args.infile}",
        )
    if args.channel == "identity":
        if args.n is None:
            raise PreconditionError("--n is required for the identity channel")
        return Channel.identity(args.d**args.n), "identity channel"
    if args.group is not None:
        if not args.group.strip():
            raise PreconditionError("--group needs at least one generator")
        K = close(_parse_gens(args.group, args.d))
        return channel_from_subgroup(K), f"group channel from {args.group!r}"
    raise PreconditionError("certify needs --group, --channel or --in")


def _cmd_certify(args) -> int:
    if args.construct and args.tol is not None:
        raise FormatError("argument --tol: not allowed with argument --construct, "
                          f"whose certificate is exact and records {_DEFAULT_TOL:g}")
    args.tol = _DEFAULT_TOL if args.tol is None else args.tol
    if args.construct:
        if not args.group:
            raise PreconditionError("--construct needs --group")
        K = close(_parse_gens(args.group, args.d))
        alg, cert = private_algebra_for_abelian(K)
        # |K| <= N <= 4096 rows, since the certificate passed its rho0 bound
        hashes = {"group": serialize.sha256_of_array(K.rows),
                  "algebra": serialize.sha256_of_array(alg.basis)}
        cert = dataclasses.replace(
            cert, channel_description=f"group channel from {args.group!r}",
            subject_description="constructed private algebra", input_hashes=hashes)
    else:
        phi, desc = _certify_channel(args)
        if not args.algebra:
            raise PreconditionError("certify needs --algebra or --construct")
        alg = _algebra_from_arg(args.algebra, args.d, args.n)
        cert = check_privatized_algebra(
            phi, alg, tol=args.tol,
            channel_description=desc,
            subject_description=f"algebra {args.algebra!r}",
            input_hashes={
                "channel": serialize.sha256_of_array(phi.kraus),
                "algebra": serialize.sha256_of_array(alg.basis),
            },
        )
    obj = serialize.certificate_to_obj(cert)
    if args.out:
        serialize.write_json(args.out, obj)
    _emit(args, obj, [
        f"verdict: {cert.verdict}",
        f"max deviation: {cert.max_deviation:.3e} (tolerance {cert.tolerance:.1e})",
    ])
    return 0 if cert.verdict else 1


def _cmd_phaseflip(args) -> int:
    worst, rho0 = phase_flip_demo(seed=args.seed)
    ok = worst < 1e-8
    lines = [
        "two-qubit phase-flip channel, Kraus = half of each diagonal Pauli",
        "privatized algebra spanned by II, IX, YY, YZ",
        f"tested 100 random encoded density operators (seed {args.seed})",
        f"Phi(rho) = I/4 for all tested rho; max deviation "
        f"{worst:.3e} < 1e-08" if ok else
        f"FAILED: max deviation {worst:.3e} >= 1e-08",
    ]
    _emit(args, {"max_deviation": worst, "passed": ok}, lines)
    return 0 if ok else 1


def _cmd_qutrit(args) -> int:
    report = two_qutrit_demo(perturb=args.perturb)
    lines = ["two-qutrit group channel and privatized qutrit algebra"]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        extra = f"  [{c.detail}]" if c.detail else ""
        lines.append(f"{status}: {c.name} (deviation {c.deviation:.3e}){extra}")
    if not report.passed:
        lines.append("failing checks: " + ", ".join(report.failed_names))
    payload = {
        "passed": report.passed,
        "block_scale": report.block_scale,
        "checks": [
            {"name": c.name, "passed": c.passed,
             "deviation": c.deviation, "detail": c.detail}
            for c in report.checks
        ],
    }
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        low = {"d": 2, "n": 1, "seed": 0}  # checked for the flags the command has
        given = {k: v for k in low if (v := getattr(args, k, None)) is not None}
        if any(v < low[k] for k, v in given.items()):
            raise PreconditionError("need --d >= 2, --n >= 1 and --seed >= 0, got "
                                    + ", ".join(f"{k}={v}" for k, v in given.items()))
        return args.handler(args)
    except (FormatError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, NumericalAmbiguityError, np.linalg.LinAlgError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
