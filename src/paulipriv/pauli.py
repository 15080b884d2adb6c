"""Exact symbolic arithmetic for tensor products of generalized Pauli operators.

Conventions, fixed once and relied on by every other module:

* ``d`` is the qudit dimension (>= 2) and ``n`` the number of sites.
* ``omega = exp(2j*pi/d)`` and ``zeta = exp(1j*pi/d)``, so ``zeta**2 == omega``.
* The shift and clock matrices are ``X[i, j] = 1`` iff ``j == (i+1) % d`` and
  ``Z = diag(1, omega, ..., omega**(d-1))``.  They satisfy ``X Z = omega Z X``.
* Every operator is stored exactly as
  ``zeta**phase * kron_k( X**x[k] @ Z**z[k] )`` with an integer ``phase``
  modulo ``2d`` and exponent vectors over ``Z_d``.  For qubits the letter
  ``Y`` is a derived spelling, ``Y = i X Z`` (phase exponent 1, x = z = 1).
* Swapping two operators picks up ``chi(a, b) = omega**(a.x . b.z - a.z . b.x)``,
  so that ``a b = chi(a, b) * b a``.

The symbolic layer is pure integer arithmetic; floating point enters only
through :func:`dense_paulis`, which realizes a whole stack of operators at once
(``PauliElement.to_dense`` is its one-operator case), and the phase-value
helpers.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, PreconditionError

__all__ = [
    "PauliElement",
    "PauliClass",
    "chi_exponent",
    "chi_value",
    "dense_paulis",
    "format_pauli",
    "omega_power",
    "parse_pauli",
    "zeta_power",
]


def zeta_power(d: int, k: int) -> complex:
    """Value of exp(1j*pi*k/d), exact on the four quarter turns."""
    m = k % (2 * d)
    if m == 0:
        return 1.0 + 0.0j
    if m == d:
        return -1.0 + 0.0j
    if 2 * m == d:
        return 1.0j
    if 2 * m == 3 * d:
        return -1.0j
    return cmath.exp(1j * math.pi * m / d)


def omega_power(d: int, k: int) -> complex:
    """Value of exp(2j*pi*k/d), exact on the four quarter turns."""
    return zeta_power(d, 2 * k)


@lru_cache(maxsize=None)
def _dense_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only zeta^0..zeta^{2d-1} and single-site X^a @ Z^b, indexed [a, b]."""
    zeta = np.array([zeta_power(d, k) for k in range(2 * d)])
    shift = np.zeros((d, d), dtype=complex)
    for i in range(d):
        shift[i, (i + 1) % d] = 1.0
    clock = np.diag([omega_power(d, j) for j in range(d)])
    xp = np.stack([np.linalg.matrix_power(shift, a) for a in range(d)])
    zp = np.stack([np.linalg.matrix_power(clock, b) for b in range(d)])
    site = np.stack([np.stack([xp[a] @ zp[b] for b in range(d)]) for a in range(d)])
    zeta.setflags(write=False)
    site.setflags(write=False)
    return zeta, site


def dense_paulis(d: int, x, z, phases=None) -> np.ndarray:
    """Dense matrices of m operators at once, shape (m, d^n, d^n).

    Operator i is ``zeta**phases[i] * kron_k(X**x[i, k] @ Z**z[i, k])`` for
    (m, n) exponent arrays ``x`` and ``z``; ``phases`` defaults to 0, the
    canonical class representatives.  The Kronecker product is folded site by
    site, one broadcast product over the whole stack per site, in the order
    and arithmetic of a per-operator ``np.kron`` chain, so every entry (signed
    zeros included) is the float that chain gives.  Callers bound the size.
    """
    if d < 2:
        raise PreconditionError(f"qudit dimension must be >= 2, got {d}")
    x = np.asarray(x, dtype=np.int64) % d
    z = np.asarray(z, dtype=np.int64) % d
    if x.ndim != 2 or x.shape != z.shape:
        raise PreconditionError(
            f"exponent arrays must share one (m, n) shape, got {x.shape} and {z.shape}"
        )
    m, n = x.shape
    phases = np.zeros(m, dtype=np.int64) if phases is None else np.asarray(phases)
    if phases.shape != (m,):
        raise PreconditionError(f"need {m} phase exponents, got shape {phases.shape}")
    zeta, site = _dense_tables(d)
    out = zeta[phases % (2 * d)].reshape(m, 1, 1)
    for k in range(n):
        s = site[x[:, k], z[:, k]]
        r = out.shape[1] * d
        out = (out[:, :, None, :, None] * s[:, None, :, None, :]).reshape(m, r, r)
    return out


def _check_same_space(a, b) -> None:
    if a.d != b.d or a.n != b.n:
        raise PreconditionError(
            f"operands live on different spaces: d={a.d},n={a.n} vs d={b.d},n={b.n}"
        )


@dataclass(frozen=True)
class PauliElement:
    """A phased tensor product of generalized Pauli operators.

    The represented operator is ``zeta**phase * kron_k(X**x[k] @ Z**z[k])``
    with ``zeta = exp(1j*pi/d)``.  Instances are immutable and hashable;
    all arithmetic returns new objects.
    """

    d: int
    n: int
    phase: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise PreconditionError(f"qudit dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise PreconditionError(f"site count must be >= 1, got {self.n}")
        x = tuple(int(v) % self.d for v in self.x)
        z = tuple(int(v) % self.d for v in self.z)
        if len(x) != self.n or len(z) != self.n:
            raise PreconditionError(
                f"exponent vectors must have length n={self.n}, "
                f"got len(x)={len(x)}, len(z)={len(z)}"
            )
        object.__setattr__(self, "phase", int(self.phase) % (2 * self.d))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliElement":
        return cls(d, n, 0, (0,) * n, (0,) * n)

    @property
    def is_identity(self) -> bool:
        return self.phase == 0 and not any(self.x) and not any(self.z)

    @property
    def phase_value(self) -> complex:
        return zeta_power(self.d, self.phase)

    def __mul__(self, other: "PauliElement") -> "PauliElement":
        """Operator product.  Reordering Z past X costs omega**(-z.x)."""
        if not isinstance(other, PauliElement):
            return NotImplemented
        _check_same_space(self, other)
        cross = sum(za * xb for za, xb in zip(self.z, other.x))
        phase = (self.phase + other.phase - 2 * cross) % (2 * self.d)
        x = tuple((a + b) % self.d for a, b in zip(self.x, other.x))
        z = tuple((a + b) % self.d for a, b in zip(self.z, other.z))
        return PauliElement(self.d, self.n, phase, x, z)

    def adjoint(self) -> "PauliElement":
        """Hermitian adjoint; equals the inverse since elements are unitary."""
        cross = sum(zk * xk for zk, xk in zip(self.z, self.x))
        phase = (-self.phase - 2 * cross) % (2 * self.d)
        x = tuple(-a % self.d for a in self.x)
        z = tuple(-a % self.d for a in self.z)
        return PauliElement(self.d, self.n, phase, x, z)

    def pauli_class(self) -> "PauliClass":
        return PauliClass(self.d, self.n, self.x, self.z)

    def to_dense(self) -> np.ndarray:
        """Dense unitary on (C^d)^(x)n, multiplicative on products."""
        return dense_paulis(self.d, [self.x], [self.z], [self.phase])[0]

    def to_string(self) -> str:
        return format_pauli(self)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class PauliClass:
    """An element of the phase quotient: a :class:`PauliElement` modulo phase."""

    d: int
    n: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        rep = PauliElement(self.d, self.n, 0, self.x, self.z)
        object.__setattr__(self, "x", rep.x)
        object.__setattr__(self, "z", rep.z)

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliClass":
        return cls(d, n, (0,) * n, (0,) * n)

    @classmethod
    def _unchecked(cls, d: int, n: int, x: tuple, z: tuple) -> "PauliClass":
        """A class from int tuples already reduced mod d, without validation."""
        obj = object.__new__(cls)
        obj.__dict__.update(d=d, n=n, x=x, z=z)
        return obj

    @property
    def is_identity(self) -> bool:
        return not any(self.x) and not any(self.z)

    def representative(self) -> PauliElement:
        """Canonical phase-0 representative."""
        return PauliElement(self.d, self.n, 0, self.x, self.z)

    def __mul__(self, other: "PauliClass") -> "PauliClass":
        if not isinstance(other, PauliClass):
            return NotImplemented
        _check_same_space(self, other)
        x = tuple((a + b) % self.d for a, b in zip(self.x, other.x))
        z = tuple((a + b) % self.d for a, b in zip(self.z, other.z))
        return PauliClass(self.d, self.n, x, z)

    def inverse(self) -> "PauliClass":
        return PauliClass(
            self.d,
            self.n,
            tuple(-a % self.d for a in self.x),
            tuple(-a % self.d for a in self.z),
        )

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: per-site (z, x) pairs, last site most significant.

        With this order the class table of chi over all of P_n is exactly the
        n-fold Kronecker power of the single-site table, and simultaneous
        diagonalization of the standard diagonal subgroup sorts to the
        computational basis.
        """
        return tuple(
            v for k in range(self.n - 1, -1, -1) for v in (self.z[k], self.x[k])
        )

    def to_dense(self) -> np.ndarray:
        return self.representative().to_dense()

    def to_string(self) -> str:
        return _format_body(self.d, self.x, self.z)

    def __str__(self) -> str:
        return self.to_string()


def _as_class(p) -> PauliClass:
    if isinstance(p, PauliClass):
        return p
    if isinstance(p, PauliElement):
        return p.pauli_class()
    raise PreconditionError(f"expected a Pauli class or element, got {type(p)!r}")


def chi_exponent(a, b) -> int:
    """Exponent e with a b = omega**e b a, as an integer modulo d."""
    a, b = _as_class(a), _as_class(b)
    _check_same_space(a, b)
    e = sum(ax * bz for ax, bz in zip(a.x, b.z)) - sum(
        az * bx for az, bx in zip(a.z, b.x)
    )
    return e % a.d


def chi_value(a, b) -> complex:
    """The commutation phase chi(a, b) as a complex number."""
    a = _as_class(a)
    return omega_power(a.d, chi_exponent(a, b))


# ---------------------------------------------------------------------------
# Textual format
#
# d = 2:  optional prefix "+", "-", "+i", "-i" (or "w<k>." with k counting
#         powers of omega), then one letter per site from {I, X, Y, Z}.
# d > 2:  optional prefix "w<k>.", then colon-separated site tokens
#         "X<a>", "Z<b>", "X<a>Z<b>", or "I" (alias for X0Z0).
# ---------------------------------------------------------------------------

_QUBIT_RE = re.compile(r"^(?:(w\d+\.)|(\+i|-i|\+|-))?([IXYZ]+)$")
_QUDIT_RE = re.compile(r"^(?:w(\d+)\.)?(.+)$")
_SITE_RE = re.compile(r"^(?:I|X(\d+)|Z(\d+)|X(\d+)Z(\d+))$")

_QUBIT_LETTERS = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}
_QUBIT_PREFIX = {None: 0, "": 0, "+": 0, "+i": 1, "-": 2, "-i": 3}
_QUBIT_PREFIX_STR = {0: "", 1: "+i", 2: "-", 3: "-i"}


def parse_pauli(text: str, d: int = 2) -> PauliElement:
    """Parse the textual Pauli format for qudit dimension ``d``.

    The site count is inferred from the string.  Raises :class:`FormatError`
    on malformed tokens or out-of-range exponents.
    """
    s = text.strip()
    if d == 2:
        m = _QUBIT_RE.match(s)
        if m is None:
            raise FormatError(f"malformed qubit Pauli string: {text!r}")
        wpfx, spfx, body = m.groups()
        if wpfx is not None:
            phase = 2 * int(wpfx[1:-1])
        else:
            phase = _QUBIT_PREFIX[spfx]
        xs, zs = [], []
        for ch in body:
            xk, zk, ph = _QUBIT_LETTERS[ch]
            xs.append(xk)
            zs.append(zk)
            phase += ph
        return PauliElement(2, len(body), phase, tuple(xs), tuple(zs))

    m = _QUDIT_RE.match(s)
    if m is None or not m.group(2):
        raise FormatError(f"malformed Pauli string: {text!r}")
    k, body = m.groups()
    phase = 2 * int(k) if k is not None else 0
    xs, zs = [], []
    for token in body.split(":"):
        sm = _SITE_RE.match(token)
        if sm is None:
            raise FormatError(f"malformed site token {token!r} in {text!r}")
        xa, zb, xc, zc = sm.groups()
        a = int(xa) if xa is not None else int(xc) if xc is not None else 0
        b = int(zb) if zb is not None else int(zc) if zc is not None else 0
        if a >= d or b >= d:
            raise FormatError(
                f"site token {token!r} has exponent out of range for d={d}"
            )
        xs.append(a)
        zs.append(b)
    return PauliElement(d, len(xs), phase, tuple(xs), tuple(zs))


def _format_body(d: int, x: tuple[int, ...], z: tuple[int, ...]) -> str:
    if d == 2:
        letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
        return "".join(letters[(a, b)] for a, b in zip(x, z))
    tokens = []
    for a, b in zip(x, z):
        if a == 0 and b == 0:
            tokens.append("I")
        elif b == 0:
            tokens.append(f"X{a}")
        elif a == 0:
            tokens.append(f"Z{b}")
        else:
            tokens.append(f"X{a}Z{b}")
    return ":".join(tokens)


def format_pauli(p: PauliElement) -> str:
    """Canonical string form; ``parse_pauli`` inverts it exactly."""
    if p.d == 2:
        y_count = sum(1 for a, b in zip(p.x, p.z) if a == 1 and b == 1)
        prefix = _QUBIT_PREFIX_STR[(p.phase + 3 * y_count) % 4]
        return prefix + _format_body(2, p.x, p.z)
    if p.phase % 2:
        raise FormatError(
            f"phase exponent {p.phase} is not a power of omega; "
            f"the d={p.d} string format cannot represent it"
        )
    prefix = f"w{p.phase // 2}." if p.phase else ""
    return prefix + _format_body(p.d, p.x, p.z)
