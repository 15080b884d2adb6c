"""Seeded inputs, ops and invariant checks for the four benchmark workloads.

Inputs are built here from the seed with numpy alone; the package only ever
receives the generated inputs (Pauli classes, dense matrices, CLI strings).
Every op is checked by mathematical invariants (group sizes, commutation,
block structure, verdicts), never by byte hashes, so a change of output basis
is not a failure.

Each workload runs in rounds of a fixed composition: the seed changes the
random subgroups, unitaries and generators, never the mix of sizes, so the
mix and hence the medians do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import paulipriv as pp
import paulipriv.cli as pp_cli

POOL_ROUNDS = 8  # distinct rounds of inputs per run; longer runs cycle through them

# exceptions by which the package refuses an input; anything else is a crash
REFUSALS = (pp.FormatError, pp.PreconditionError, pp.NumericalAmbiguityError)


class WrongAnswer(Exception):
    """An op returned a result that violates its invariant."""


class Failed(Exception):
    """A CLI op failed without an answer: exit code 2 or 3, or a traceback."""


@dataclass(frozen=True)
class Case:
    kind: str
    labels: tuple  # (("d", 2), ("n", 5)) or (("N", 16),): size tags for the trace rows
    data: dict


@dataclass(frozen=True)
class Outcome:
    latency: float  # seconds spent in the package (math.inf when the op failed)
    verdict: tuple  # what the op concluded; tracing must not change it
    error: str | None = None
    wrong: bool = False  # a wrong answer, as opposed to a refusal or a crash
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.error is None


def run_case(workload, case: Case) -> Outcome:
    """Run one op and classify how it ended."""
    try:
        latency, verdict, extra = workload.run(case)
    except WrongAnswer as exc:
        return Outcome(math.inf, ("wrong", str(exc)), f"wrong answer: {exc}", True)
    except Exception as exc:
        # a refusal or a crash: the op failed, but gave no wrong answer
        if not isinstance(exc, (Failed, *REFUSALS)):
            traceback.print_exc()
        name = type(exc).__name__
        return Outcome(math.inf, ("failed", name), f"{name}: {exc}")
    return Outcome(latency, verdict, extra=extra)


def require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Subgroups of Z_d^{2n}, generated without the package
# ---------------------------------------------------------------------------


def symplectic_form(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Commutation exponents <a_i, b_j> = a.x b.z - a.z b.x mod d of (x | z) rows."""
    n = a.shape[1] // 2
    return (a[:, :n] @ b[:, n:].T - a[:, n:] @ b[:, :n].T) % d


def isotropic_rows(rng, d: int, n: int, scales) -> np.ndarray:
    """(x | z) rows of commuting classes: row i starts as Z_{i+1}^{scales[i]}.

    Random symplectic transvections w -> w + lam <w, v> v preserve the form
    over any Z_d, so the rows keep commuting and generate a subgroup of size
    prod(d / gcd(s, d)) in a scrambled frame.
    """
    rows = np.zeros((len(scales), 2 * n), dtype=np.int64)
    for i, s in enumerate(scales):
        rows[i, n + i] = s % d
    for _ in range(4 * n + 4):
        v = rng.integers(0, d, 2 * n)
        lam = int(rng.integers(1, d))
        f = symplectic_form(rows, v[None, :], d)[:, 0]
        rows = (rows + lam * f[:, None] * v[None, :]) % d
    return rows


def subgroup_order(d: int, scales) -> int:
    return math.prod(d // math.gcd(s, d) for s in scales)


def to_classes(rows: np.ndarray, d: int) -> list:
    n = rows.shape[1] // 2
    return [pp.PauliClass(d, n, tuple(map(int, r[:n])), tuple(map(int, r[n:]))) for r in rows]


def class_rows(elements) -> np.ndarray:
    return np.array([list(c.x) + list(c.z) for c in elements], dtype=np.int64)


def pauli_string(row, d: int) -> str:
    """The CLI's textual form of a (x | z) row, phase omitted."""
    n = len(row) // 2
    pairs = list(zip(map(int, row[:n]), map(int, row[n:])))
    if d == 2:
        return "".join("IXZY"[a + 2 * b] for a, b in pairs)
    return ":".join(
        "I" if a == b == 0 else (f"X{a}" if a else "") + (f"Z{b}" if b else "")
        for a, b in pairs
    )


_SITE = re.compile(r"(?:X(\d+))?(?:Z(\d+))?")


def parse_row(text: str, d: int) -> tuple:
    """(x | z) tuple of a CLI Pauli string; the phase prefix is ignored."""
    if d == 2:
        body = text.lstrip("+-i")
        return tuple(int(c in "XY") for c in body) + tuple(int(c in "ZY") for c in body)
    xs, zs = [], []
    for token in re.sub(r"^w\d+\.", "", text).split(":"):
        m = _SITE.fullmatch("" if token == "I" else token)
        if m is None:
            raise WrongAnswer(f"unreadable Pauli token {token!r} in {text!r}")
        xs.append(int(m.group(1) or 0))
        zs.append(int(m.group(2) or 0))
    return tuple(xs) + tuple(zs)


def span_rows(rows: np.ndarray, d: int) -> set:
    """All Z_d combinations of the rows, as tuples (small groups only)."""
    out = {tuple([0] * rows.shape[1])}
    for r in rows:
        out = {tuple((np.array(e) + k * r) % d) for e in out for k in range(d)}
    return out


_QUBIT = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.diag([1.0, -1.0]).astype(complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X Z
}


def qubit_dense(row) -> np.ndarray:
    n = len(row) // 2
    out = np.eye(1, dtype=complex)
    for a, b in zip(row[:n], row[n:]):
        out = np.kron(out, _QUBIT[(int(a), int(b))])
    return out


# ---------------------------------------------------------------------------
# certify_pipeline
# ---------------------------------------------------------------------------


class CertifyPipeline:
    """The headline claim: Abelian K of size 2^k privatizes floor(k/2) qubits."""

    name = "certify_pipeline"
    # (n, k) per round: one maximal K on n=3 and four on n=4, then one n=5
    # case whose k cycles through maximal, 2, 3, 4 from round to round.  The
    # median falls mid-way through the n=4 ops, and the tail percentile (ten
    # samples beyond it) among them for any round count from 3 to 10.
    ROUND = ((3, 3),) + ((4, 4),) * 4
    CYCLE = ((5, 5), (5, 2), (5, 3), (5, 4))

    def _case(self, rng, n, k):
        rows = isotropic_rows(rng, 2, n, [1] * k)
        data = {"n": n, "k": k, "gens": to_classes(rows, 2)}
        return Case("certify", (("d", 2), ("n", n), ("k", k)), data)

    def rounds(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for r in range(POOL_ROUNDS):
            specs = (*self.ROUND, self.CYCLE[r % len(self.CYCLE)])
            out.append([self._case(rng, n, k) for n, k in specs])
        return out

    def warmup(self, seed):
        return self._case(np.random.default_rng([seed, 1]), 3, 3)

    def run(self, case):
        n, k = case.data["n"], case.data["k"]
        t0 = perf_counter()
        K = pp.close(case.data["gens"])
        if k == n:
            alg, cert = pp.private_algebra_for_max_abelian(K)
        else:
            alg, cert = pp.private_algebra_for_abelian(K)
        st, _ = pp.structure_type(alg)
        quasi = pp.is_quasiorthogonal(pp.subgroup_algebra(K), alg)
        latency = perf_counter() - t0
        blocks = ((2 ** (n - k // 2), 2 ** (k // 2)),)
        require(len(K) == 2**k, f"|K| = {len(K)}, expected {2**k}")
        require(cert.verdict, f"privacy verdict False (deviation {cert.max_deviation:.3e})")
        require(st.blocks == blocks, f"blocks {st.blocks}, expected {blocks}")
        require(quasi, "span(K) and the private algebra are not quasiorthogonal")
        return latency, ("ok", st.blocks), {}


# ---------------------------------------------------------------------------
# extend_subgroups
# ---------------------------------------------------------------------------


class ExtendSubgroups:
    """Closure, annihilator and maximal extension: groups and pauli only."""

    name = "extend_subgroups"
    # (d, n, scales of the seed generators).  d^(2n) <= 4096 classes is below
    # the annihilator's scan limit; the composite d=4, n=4 and d=6, n=3 cases
    # lie above it, where the package refuses composite d today.  The d=3,
    # n=5 case runs three times so that the tail percentile (ten samples
    # beyond it) stays inside one case for any round count from 3 to 10.
    SPECS = (
        (2, 6, (1, 1)),
        (2, 7, (1, 1, 1)),
        (2, 8, (1, 1, 1, 1)),
        (3, 4, (1, 1)),
        *((3, 5, (1, 1)),) * 3,
        (5, 3, (1,)),
        (4, 2, (2,)),
        (4, 3, (1, 2)),
        (6, 2, (3,)),
        (4, 4, (1,)),
        (6, 3, (2,)),
    )

    def _case(self, rng, d, n, scales):
        rows = isotropic_rows(rng, d, n, scales)
        data = {"d": d, "n": n, "size": subgroup_order(d, scales), "rows": rows,
                "gens": to_classes(rows, d)}
        return Case("extend", (("d", d), ("n", n)), data)

    def rounds(self, seed):
        rng = np.random.default_rng(seed)
        return [[self._case(rng, *spec) for spec in self.SPECS] for _ in range(POOL_ROUNDS)]

    def warmup(self, seed):
        return self._case(np.random.default_rng([seed, 1]), 4, 2, (2,))

    def run(self, case):
        d, n, seed_rows = case.data["d"], case.data["n"], case.data["rows"]
        t0 = perf_counter()
        K = pp.close(case.data["gens"])
        ann = pp.annihilator(K)
        M = pp.extend_to_maximal(K)
        latency = perf_counter() - t0
        require(len(K) == case.data["size"], f"|K| = {len(K)}, expected {case.data['size']}")
        require(len(K) * len(ann) == d ** (2 * n), f"|K||Ann K| = {len(K) * len(ann)} != d^2n")
        require(not symplectic_form(class_rows(ann), seed_rows, d).any(),
                "Ann K has a class that does not commute with K")
        require(len(M) == d**n, f"extension has {len(M)} classes, expected d^n = {d**n}")
        m_rows = class_rows(M)
        require(not symplectic_form(m_rows, m_rows, d).any(), "extension is not Abelian")
        have = set(map(tuple, m_rows))
        require(all(tuple(r) in have for r in seed_rows), "extension does not contain the seed")
        return latency, ("ok", len(K), len(M)), {}


# ---------------------------------------------------------------------------
# dense_algebras
# ---------------------------------------------------------------------------


def haar_unitary(rng, N: int) -> np.ndarray:
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre(rng, q: int) -> np.ndarray:
    return rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))


def planted_generators(rng, blocks, U) -> list:
    """Two generic elements of U (sum_i I_k (x) M_q) U^dag; they generate it all."""
    N = U.shape[0]
    gens = []
    for _ in range(2):
        m = np.zeros((N, N), dtype=complex)
        o = 0
        for k, q in blocks:
            m[o : o + k * q, o : o + k * q] = np.kron(np.eye(k), ginibre(rng, q))
            o += k * q
        gens.append(U @ m @ U.conj().T)
    return gens


def diagonal_generators(rng, U) -> list:
    N = U.shape[0]
    return [U @ np.diag(rng.standard_normal(N) + 1j * rng.standard_normal(N)) @ U.conj().T
            for _ in range(2)]


class DenseAlgebras:
    """Non-Pauli algebras with planted block structure on N = 12..24."""

    name = "dense_algebras"
    # ("planted", blocks (k, q)) pairs an algebra with its commutant: the two are
    # quasiorthogonal exactly when there is one block.  ("fourier", N) pairs the
    # diagonal algebra with its Fourier conjugate, which is quasiorthogonal.
    # One slowest op (N=24) above three alike ones (N=18) keeps the tail
    # percentile inside the N=18 ops for any round count from 3 to 10, and the
    # median falls on the N=18 Fourier pair.
    SPECS = (
        ("planted", ((2, 3), (3, 2))),
        ("planted", ((3, 4),)),
        ("fourier", 14),
        ("planted", ((1, 4), (4, 2), (4, 1))),
        ("fourier", 18),
        *(("planted", ((3, 3), (1, 5), (4, 1))),) * 3,
        ("planted", ((3, 4), (4, 3))),
    )

    def _case(self, rng, kind, shape):
        if kind == "planted":
            blocks = shape
            N = sum(k * q for k, q in blocks)
            U = haar_unitary(rng, N)
            data = {"gens": planted_generators(rng, blocks, U), "partner": None,
                    "quasi": len(blocks) == 1}
        else:
            N = shape
            blocks = ((1, 1),) * N
            U = haar_unitary(rng, N)
            F = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / math.sqrt(N)
            data = {"gens": diagonal_generators(rng, U),
                    "partner": diagonal_generators(rng, U @ F), "quasi": True}
        data["blocks"] = tuple(sorted(blocks, key=lambda b: (b[1], b[0])))
        return Case(kind, (("N", N),), data)

    def rounds(self, seed):
        rng = np.random.default_rng(seed)
        return [[self._case(rng, *spec) for spec in self.SPECS] for _ in range(POOL_ROUNDS)]

    def warmup(self, seed):
        return self._case(np.random.default_rng([seed, 1]), *self.SPECS[0])

    def run(self, case):
        data = case.data
        t0 = perf_counter()
        A = pp.span_closure(data["gens"])
        C = pp.commutant(A)
        st, _ = pp.structure_type(A)
        E = pp.conditional_expectation(A)
        B = C if data["partner"] is None else pp.span_closure(data["partner"])
        report = pp.quasiorth_condition_suite(A, B)
        latency = perf_counter() - t0
        blocks = data["blocks"]
        require(st.blocks == blocks, f"blocks {st.blocks}, expected {blocks}")
        dim_a = sum(q * q for _, q in blocks)
        dim_c = sum(k * k for k, _ in blocks)
        require(A.dim == dim_a and A.dim * C.dim == dim_a * dim_c,
                f"dim A = {A.dim}, dim A' = {C.dim}, expected {dim_a} and {dim_c}")
        for g in data["gens"]:
            image = np.einsum("kab,bc,kdc->ad", E.kraus, g, E.kraus.conj())
            require(np.abs(image - g).max() <= 1e-7 * max(1.0, np.abs(g).max()),
                    "the conditional expectation does not fix the algebra")
        require(report.consistent, f"quasiorthogonality verdicts disagree: {report.verdicts}")
        require(report.verdict == data["quasi"],
                f"quasiorthogonal = {report.verdict}, expected {data['quasi']}")
        return latency, ("ok", st.blocks, report.verdict), {}


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------


def _parse_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)["result"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise WrongAnswer(f"unreadable JSON output: {exc}") from exc


class CliRoundtrip:
    """`paulipriv` commands as subprocesses, checked by exit code and JSON verdict.

    With ``inprocess`` set (the traced run) every op also runs its argv through
    ``paulipriv.cli.main`` in this process, so the trace sees the cli and
    serialize layers and the process overhead can be split off.
    """

    name = "cli_roundtrip"

    def __init__(self, workdir: Path, env: dict, inprocess: bool = False):
        self.workdir = workdir
        self.env = env
        self.inprocess = inprocess

    def _certify(self, rng, n):
        rows = isotropic_rows(rng, 2, n, [1] * n)
        argv = ["privacy", "certify", "--group", ",".join(pauli_string(r, 2) for r in rows),
                "--construct", "--no-timestamp"]
        return Case("certify", (("d", 2), ("n", n)), {"steps": [argv], "n": n})

    def _extend(self, d, rows):
        n = rows.shape[1] // 2
        argv = ["group", "extend", "--d", str(d), "--no-timestamp",
                "--gens", ",".join(pauli_string(r, d) for r in rows)]
        return Case("extend", (("d", d), ("n", n)), {"steps": [argv], "d": d, "n": n, "rows": rows})

    def _quasiorth(self, rng, n):
        a = isotropic_rows(rng, 2, n, [1] * n)
        b = isotropic_rows(rng, 2, n, [1] * n)
        # spans of two Pauli subgroups are quasiorthogonal iff they meet only in I
        quasi = len(span_rows(a, 2) & span_rows(b, 2)) == 1
        argv = ["privacy", "quasiorth", "--no-timestamp",
                "--a", ",".join(pauli_string(r, 2) for r in a),
                "--b", ",".join(pauli_string(r, 2) for r in b)]
        return Case("quasiorth", (("d", 2), ("n", n)), {"steps": [argv], "quasi": quasi})

    def _condexp_apply(self, rng, n, tag):
        rows = isotropic_rows(rng, 2, n, [1] * n)
        N = 2**n
        g = ginibre(rng, N)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        state = self.workdir / f"rho_{tag}.json"
        chan = self.workdir / f"condexp_{tag}.json"
        state.write_text(json.dumps({"n": N, "re": rho.real.tolist(), "im": rho.imag.tolist()}))
        # the conditional expectation onto span(K), K maximal Abelian, is the
        # Hilbert-Schmidt projection sum_{P in K} tr(P^dag rho) P / N
        expected = np.zeros((N, N), dtype=complex)
        for e in span_rows(rows, 2):
            p = qubit_dense(e)
            expected += np.trace(p.conj().T @ rho) * p / N
        steps = [
            ["channel", "condexp", "--no-timestamp", "--out", str(chan),
             "--algebra", ",".join(pauli_string(r, 2) for r in rows)],
            ["channel", "apply", "--no-timestamp", "--in", str(chan), "--state", str(state)],
        ]
        return Case("condexp_apply", (("d", 2), ("n", n)), {"steps": steps, "expected": expected})

    def rounds(self, seed):
        # Every op pays the interpreter start, so costs sit close together.
        # Five fast ops below the three middle ones, and four alike slow ones
        # (condexp then apply on n=4) plus the failing op above them, put the
        # median mid-way through the middle ops; the slow ops hold the tail
        # percentile for any round count from 3 up.
        rng = np.random.default_rng(seed)
        out = []
        for r in range(POOL_ROUNDS):
            out.append([
                self._certify(rng, 3),
                self._quasiorth(rng, 2),
                self._quasiorth(rng, 3),
                Case("qutrit", (("d", 3), ("n", 2)), {"steps": [["demo", "qutrit", "--no-timestamp"]]}),
                self._certify(rng, 4),
                self._extend(2, isotropic_rows(rng, 2, 6, (1, 1))),
                self._certify(rng, 5),
                self._condexp_apply(rng, 3, f"{r}-3"),
                *(self._condexp_apply(rng, 4, f"{r}-4{i}") for i in range(4)),
                # a maximal Abelian subgroup exists; the package exits 3 today
                self._extend(4, np.array([[0, 0, 0, 0, 1, 0, 0, 0]])),
            ])
        return out

    def warmup(self, seed):
        return self._extend(2, isotropic_rows(np.random.default_rng([seed, 1]), 2, 3, (1,)))

    def _subprocess(self, argv):
        t0 = perf_counter()
        p = subprocess.run([sys.executable, "-m", "paulipriv.cli", *argv], env=self.env,
                           capture_output=True, text=True, timeout=60)
        return perf_counter() - t0, p.returncode, p.stdout, p.stderr

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pp_cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
        return perf_counter() - t0, code, out.getvalue(), err.getvalue()

    def run(self, case):
        results = [self._subprocess(argv) for argv in case.data["steps"]]
        extra = {"subprocess_s": sum(r[0] for r in results)}
        if self.inprocess:
            # before any check, so that the trace also sees the ops that fail
            local = [self._in_process(argv) for argv in case.data["steps"]]
            extra["inprocess_s"] = sum(r[0] for r in local)
        verdict = self.check(case, results)
        if self.inprocess:
            require(self.check(case, local) == verdict, "in-process verdict differs")
        return extra["subprocess_s"], verdict, extra

    def check(self, case, results) -> tuple:
        """Verdict of one op from its (seconds, exit code, stdout, stderr) steps."""
        for _, code, _, err in results:
            if "Traceback (most recent call last)" in err:
                raise Failed(f"traceback: {err.strip().splitlines()[-1]}")
            if code in (2, 3):
                raise Failed(f"exit {code}: {err.strip()}")
        codes = [code for _, code, _, _ in results]
        kind, data = case.kind, case.data
        want = 1 if kind == "quasiorth" and not data["quasi"] else 0
        require(codes[-1] == want and all(c == 0 for c in codes[:-1]),
                f"exit codes {codes}, expected {want} last")
        result = _parse_json(results[-1][2])
        if kind == "certify":
            N = 2 ** data["n"]
            rho0 = np.array(result["rho0"]["re"]) + 1j * np.array(result["rho0"]["im"])
            require(result["verdict"] is True, "certificate verdict is not true")
            require(result["max_deviation"] <= result["tolerance"], "deviation above tolerance")
            require(np.abs(rho0 - np.eye(N) / N).max() <= 1e-8, "rho0 is not I/N")
            require(len(result["per_basis_deviation"]) == 4 ** (data["n"] // 2),
                    "private algebra has the wrong dimension")
            return ("ok", result["verdict"])
        if kind == "extend":
            d, n = data["d"], data["n"]
            rows = np.array([parse_row(s, d) for s in result["elements"]], dtype=np.int64)
            require(result["size"] == d**n == len(rows), f"extension size {result['size']} != d^n")
            require(not symplectic_form(rows, rows, d).any(), "extension is not Abelian")
            have = set(map(tuple, rows))
            require(all(tuple(r) in have for r in data["rows"]), "extension lacks the seed")
            return ("ok", result["size"])
        if kind == "quasiorth":
            require(result["consistent"] is True, "quasiorthogonality verdicts disagree")
            require(result["quasiorthogonal"] == data["quasi"], "wrong quasiorthogonality verdict")
            return ("ok", result["quasiorthogonal"])
        if kind == "qutrit":
            require(result["passed"] is True and len(result["checks"]) == 5
                    and all(c["passed"] for c in result["checks"]), "qutrit demo checks failed")
            return ("ok", True)
        out = np.array(result["output"]["re"]) + 1j * np.array(result["output"]["im"])
        require(np.abs(out - data["expected"]).max() <= 1e-8,
                "channel output differs from the projection onto span(K)")
        return ("ok", out.shape[0])


WORKLOADS = ("certify_pipeline", "extend_subgroups", "dense_algebras", "cli_roundtrip")


def make(name: str, workdir: Path, env: dict, inprocess: bool = False):
    if name == "certify_pipeline":
        return CertifyPipeline()
    if name == "extend_subgroups":
        return ExtendSubgroups()
    if name == "dense_algebras":
        return DenseAlgebras()
    if name == "cli_roundtrip":
        return CliRoundtrip(workdir, env, inprocess)
    raise ValueError(f"unknown workload {name!r}")
