"""Subgroup machinery on the phase quotient of the generalized Pauli group.

The quotient of the n-site Pauli group by its phase center is the additive
group Z_d^{2n} in (x, z) coordinates, so subgroups, annihilators and maximal
Abelian extensions are integer linear algebra over Z_d.  One code path serves
every d >= 2 with 2n (d - 1)^2 < 2^63, prime or composite, so that its int64
sums stay exact: a subgroup is the Howell form of its generator rows, which give
its exact order.  Its elements are enumerated only on demand, never found by
scanning P_n, and enumeration alone is bounded (10^6 elements).  No operation
here lists elements: groups of any order are built, compared, intersected and
extended to maximal Abelian ones by Howell forms alone, each kernel system below
2^22 entries.  Dense matrices appear only in tests and in downstream modules.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .pauli import PauliClass, omega_power

__all__ = [
    "CharacterMatrix",
    "PauliSubgroup",
    "all_classes",
    "annihilator",
    "character_matrix",
    "close",
    "diagonal_subgroup",
    "encoded_subgroup",
    "extend_to_maximal",
    "generating_set",
    "intersect",
    "is_abelian",
]

_MAX_ELEMENTS = 10**6  # elements enumerated per group
_MAX_CHARACTER_SIDE = 10**4
_MAX_KERNEL_ENTRIES = 2**22  # of [a^T | I] in a kernel solve (32 MiB); n = 512 needs 2^21


def all_classes(d: int, n: int) -> list[PauliClass]:
    """Every class of P_n in canonical order (per-site (z, x), site n slow)."""
    return list(annihilator(close((), d=d, n=n)))


def _howell(rows, d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Howell form of the row span of ``rows`` over Z_d, with its pivot columns.

    The rows are in echelon form, each pivot entry divides d, and every element
    of the span that vanishes before a pivot column lies in the span of the
    rows from that pivot on.  So each element of the span is sum_i l_i h_i for
    exactly one choice of 0 <= l_i < d / h_i[pivot_i].  Pivots are chosen on Python
    ints, and each costs one vectorized update of the rows left.
    """
    a = np.asarray(rows, dtype=np.int64) % d
    out, pivots = [], []
    for c in range(a.shape[1]):  # zero rows never pivot and are never bad, so they stay
        col = a[:, c].tolist()
        if not any(col):
            continue
        gcds = [math.gcd(v, d) for v in col]
        i = gcds.index(min(gcds))
        p, a = a[i].copy(), np.concatenate((a[:i], a[i + 1 :]))  # a view keeps old a alive
        del col[i]
        while True:
            # scale the pivot by the smallest unit u with u p_c = g (mod d): the units
            # solving it are the lifts of (p_c/g)^-1 mod d/g that are coprime to d
            g = math.gcd(pc := int(p[c]), d)
            if pc != g:
                m = d // g
                p = p * next(u for u in range(pow(pc // g, -1, m), d, m)
                             if math.gcd(u, d) == 1) % d
            bad = [k for k, v in enumerate(col) if v % g] if g > 1 else ()
            if not bad:
                break
            # Z_d has stable rank 1: some p_c + t r_c generates the ideal (p_c, r_c).
            # With h = gcd(p_c, r_c) the search stops at the first t with
            # gcd(p_c/h + t r_c/h, d/h) = 1.  Each prime of d/h rules out at most one
            # residue of t, so its length is bounded by the gaps between integers
            # coprime to d/h (a few steps), not by d.
            r, rc = a[bad[0]], col[bad[0]]
            h = math.gcd(g, rc)
            t = next(t for t in range(d) if math.gcd(g + t * rc, d) == h)
            p = (p + t * r) % d
        if any(col):  # a is a fresh copy (concatenate copied it), updated in place
            a -= np.multiply.outer(a[:, c] // g if g > 1 else a[:, c], p)
            a -= a // d * d  # a %= d: numpy's division by a scalar beats its remainder
        a = np.vstack([a, d // g * p % d]) if g > 1 else a  # that row is 0 for g = 1
        out.append(p)
        pivots.append(c)
    return np.array(out, dtype=np.int64).reshape(len(out), a.shape[1]), tuple(pivots)


def _vanishing(rows, r: int, d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Howell rows, first r columns dropped, of the span's elements that vanish on them."""
    h, pivots = _howell(rows, d)
    keep = [i for i, c in enumerate(pivots) if c >= r]
    return h[keep, r:], tuple(pivots[i] - r for i in keep)


def _require_system(m: int, width: int) -> None:
    """Refuse an m x width integer system above the bound, before it is built."""
    if m * width > _MAX_KERNEL_ENTRIES:
        raise PreconditionError(f"a kernel system of {m} x {width} entries is above the bound "
                                f"{_MAX_KERNEL_ENTRIES}")


def _kernel(a, d: int, within=None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Howell form of {v in span within : a v = 0 (mod d)}, v any vector by default.

    Row-reducing [W a^T | W] over Z_d, W the rows within or I (the transpose of
    column-reducing [a | d I] over Z), leaves the solutions as the rows that
    vanish on the first block; by the Howell property those rows span them all.
    """
    r, m = a.shape
    _require_system(m, r + m)
    if within is None:
        return _vanishing(np.hstack([a.T, np.eye(m, dtype=np.int64)]), r, d)
    return _vanishing(np.hstack([within @ a.T, within]), r, d)


def _residue(rows, K: PauliSubgroup) -> np.ndarray:
    """Rows reduced by the Howell rows of K; a row reduces to zero iff it lies in K."""
    out = np.array(rows, dtype=np.int64)
    for h, c in zip(K._gens, K._pivots):
        out = (out - (out[:, c] // h[c])[:, None] * h) % K.d
    return out


def _require_enumerable(d: int, k: int, m: int = 1) -> None:
    """Refuse to enumerate a group of d^k / m elements above the bound; a huge one uncomputed."""
    e = k * (d.bit_length() - 1) - (m - 1).bit_length()  # d^k / m >= 2^e
    if e >= _MAX_ELEMENTS.bit_length():
        size = f"at least 2^{e}"
    elif (size := d**k // m) <= _MAX_ELEMENTS:
        return
    raise PreconditionError(f"{size} elements, above the bound {_MAX_ELEMENTS} on enumeration")


def _class_rows(classes, n: int) -> np.ndarray:
    rows = np.array([c.x + c.z for c in classes], dtype=np.int64)
    return rows.reshape(len(classes), 2 * n)


class PauliSubgroup:
    """A multiplicatively closed set of Pauli classes, canonically ordered.

    The group is exactly the Howell form of its generator rows, built by
    :func:`close`, :func:`annihilator` and the other functions of this module.
    ``order`` is its exact number of elements, a Python int of any size.  The
    elements are enumerated from the rows on first use into one array of
    (x | z) rows, in canonical class order and in the smallest unsigned dtype
    that holds 2(d - 1) (uint8 for d <= 128); that enumeration, and so
    iteration, ``elements`` and ``xz_arrays``, is refused above 10^6 elements.
    PauliClass objects are made only when the group is iterated or its
    ``elements`` are read.
    """

    @classmethod
    def _from_howell(cls, d, n, gens, pivots):
        K = cls.__new__(cls)
        K.d, K.n, K._gens, K._pivots = d, n, gens, pivots
        K.order = math.prod(d // int(h[c]) for h, c in zip(gens, pivots))
        return K

    @classmethod
    def _span(cls, d, n, rows):
        """The subgroup generated by (x | z) integer rows."""
        return cls._from_howell(d, n, *_howell(rows, d))

    @cached_property
    def rows(self) -> np.ndarray:
        """Read-only (x | z) exponent rows of all elements, canonical order."""
        _require_enumerable(self.order, 1)
        d, n, width = self.d, self.n, 2 * self.n
        dtype = np.min_scalar_type(2 * (d - 1))
        out = np.zeros((1, width), dtype=dtype)
        for h, c in zip(self._gens, self._pivots):
            steps = (np.arange(d // h[c])[:, None] * h % d).astype(dtype)
            out = (steps[:, None, :] + out[None, :, :]).reshape(-1, width)
            out %= d
        # np.lexsort's last key is primary: keys (x_1, z_1, ..., x_n, z_n)
        out = out[np.lexsort([out[:, k + s] for k in range(n) for s in (0, n)])]
        out.setflags(write=False)
        return out

    @property
    def elements(self) -> tuple[PauliClass, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        d, n = self.d, self.n
        for r in self.rows.tolist():
            yield PauliClass._unchecked(d, n, tuple(r[:n]), tuple(r[n:]))

    def __contains__(self, c) -> bool:
        space = (c.d, c.n) == (self.d, self.n)
        return space and not _residue(_class_rows([c], self.n), self).any()

    def issubset(self, other: "PauliSubgroup") -> bool:
        space = (self.d, self.n) == (other.d, other.n)
        return space and not _residue(self._gens, other).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSubgroup):
            return NotImplemented
        return self.order == other.order and self.issubset(other)

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.order))

    def __repr__(self) -> str:
        return f"PauliSubgroup(d={self.d}, n={self.n}, size={self.order})"

    def xz_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponent vectors of all elements as integer arrays of shape (m, n)."""
        rows = self.rows.astype(np.int64)
        return rows[:, : self.n], rows[:, self.n :]


def close(generators=(), *, d: int | None = None, n: int | None = None) -> PauliSubgroup:
    """Smallest subgroup of P_n containing the given classes.

    ``d`` and ``n`` are inferred from the generators when present; for an
    empty generator list they must be passed explicitly and the result is
    the trivial subgroup.
    """
    gens = [g if isinstance(g, PauliClass) else g.pauli_class() for g in generators]
    if gens:
        d, n = gens[0].d, gens[0].n
        if any((g.d, g.n) != (d, n) for g in gens):
            raise PreconditionError("generators on mismatched spaces")
    elif d is None or n is None:
        raise PreconditionError("close() with no generators needs explicit d and n")
    else:
        PauliClass.identity(d, n)  # raises unless d >= 2 and n >= 1
    if 2 * n * (d - 1) ** 2 >= 2**63:  # chi and partner rows sum 2n such int64 products
        raise PreconditionError(f"d = {d} on n = {n} sites overflows 64-bit arithmetic: "
                                "need 2 n (d - 1)^2 < 2^63")
    return PauliSubgroup._span(d, n, _class_rows(gens, n))


def generating_set(K: PauliSubgroup) -> list[PauliClass]:
    """The Howell generator rows of K as classes: at most one per column, so 2n."""
    n = K.n
    return [PauliClass(K.d, n, tuple(h[:n]), tuple(h[n:])) for h in K._gens.tolist()]


def _chi_rows(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Omega exponents chi(a_i, b_j) of (x | z) rows, shape (len(a), len(b))."""
    n = a.shape[1] // 2
    return (a[:, :n] @ b[:, n:].T - a[:, n:] @ b[:, :n].T) % d


def intersect(A: PauliSubgroup, B: PauliSubgroup) -> PauliSubgroup:
    """A meet B, for any d >= 2, by one Howell form (Zassenhaus).

    The span of [[A | A], [B | 0]] is {(a + b | a)}; its elements with left
    half 0 are (0 | a) for a in both A and B, and by the Howell property the
    rows that vanish on the left half span them.  Nothing is enumerated.
    """
    if (A.d, A.n) != (B.d, B.n):
        raise PreconditionError(
            f"subgroups live on different spaces: d={A.d},n={A.n} vs d={B.d},n={B.n}"
        )
    _require_system(len(A._gens) + len(B._gens), 4 * A.n)
    rows = np.vstack([np.hstack([A._gens, A._gens]), np.hstack([B._gens, np.zeros_like(B._gens)])])
    return PauliSubgroup._from_howell(A.d, A.n, *_vanishing(rows, 2 * A.n, A.d))


def is_abelian(K: PauliSubgroup) -> bool:
    """True iff chi(a, b) = 1 for every pair of generators, hence of elements."""
    return not _chi_rows(K._gens, K._gens, K.d).any()


@dataclass(frozen=True, eq=False)
class CharacterMatrix:
    """Full table of commutation phases over all classes of P_n.

    ``exponents[a, b]`` is the exponent e with class_a class_b =
    omega**e class_b class_a, stored modulo d.  Rows and columns follow the
    canonical class order, so the identity class indexes row and column 0.
    """

    d: int
    n: int
    classes: tuple[PauliClass, ...]
    exponents: np.ndarray

    def __post_init__(self):
        arr = np.array(self.exponents, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "exponents", arr)
        object.__setattr__(self, "classes", tuple(self.classes))

    def to_complex(self) -> np.ndarray:
        values = np.array([omega_power(self.d, k) for k in range(self.d)])
        return values[self.exponents]


def character_matrix(d: int, n: int) -> CharacterMatrix:
    """Materialize the chi table for all of P_n (size d^{2n} per side)."""
    # d^(2n) >= 4^n, so n alone refuses a large table and no huge power is computed
    if 2 * n >= _MAX_CHARACTER_SIDE.bit_length() or d ** (2 * n) > _MAX_CHARACTER_SIDE:
        side = f"{d}^{2 * n}"
        if n * d.bit_length() <= 2**16:  # cheap to compute: print it where str() can
            with contextlib.suppress(ValueError):
                side = str(d ** (2 * n))
        raise PreconditionError(
            f"character matrix side {side} exceeds the bound {_MAX_CHARACTER_SIDE}"
        )
    classes = all_classes(d, n)
    rows = _class_rows(classes, n)
    return CharacterMatrix(d, n, tuple(classes), _chi_rows(rows, rows, d))


def annihilator(K: PauliSubgroup) -> PauliSubgroup:
    """All classes commuting with every element of K, for any d >= 2.

    The classes v with g.x . v.z - g.z . v.x = 0 (mod d) for every generator g
    of K are the kernel of one integer matrix over Z_d; the kernel solver
    returns their Howell form directly, and |K| |Ann K| = d^{2n}.
    """
    return PauliSubgroup._from_howell(K.d, K.n, *_commuting(K._gens, K.d))


def _commuting(rows: np.ndarray, d: int, order=slice(None), within=None) -> tuple:
    """Howell form of the v[order] in span within (or all) with chi(r, v) = 1 for rows r."""
    n = rows.shape[1] // 2
    return _kernel(np.hstack([-rows[:, n:], rows[:, :n]])[:, order], d, within)


def _partner_rows(g: np.ndarray, d: int) -> np.ndarray:
    """(x | z) rows h_j of commuting partners of commuting rows g, chi(g_i, h_j) = omega^delta_ij.

    Symplectic Gram-Schmidt (Koenig & Smolin, arXiv:1406.2170) for the Howell rows
    of an Abelian K with pivot entries 1 (any Abelian K, prime d), in one Howell
    solve of [M^T | I], M = [-g_z | g_x] so that (M v)_i = chi(g_i, v).  Back-
    substitution turns its first k rows into h0 with chi(g_i, h0_j) = delta_ij, and
    h = h0 + triu(-C, 1) g, C = chi(h0, h0), commute.  O(n^3); nothing is enumerated.
    """
    if _chi_rows(g, g, d).any():
        raise PreconditionError("symplectic partners need an Abelian K")
    (k, width), n = g.shape, g.shape[1] // 2
    _require_system(width, k + width)
    m_t = np.vstack([-g[:, n:].T, g[:, :n].T])  # M^T for M = [-g_z | g_x]
    a, pivots = _howell(np.hstack([m_t, np.eye(width, dtype=np.int64)]), d)
    for j in range(k):
        if pivots[j : j + 1] != (j,) or a[j, j] != 1:
            raise PreconditionError(f"generator {j + 1} of K has no symplectic partner")
    for j in reversed(range(k - 1)):  # back-substitution: the k x k block becomes I
        a[j] = (a[j] - a[j, j + 1 : k] @ a[j + 1 : k]) % d
    h = a[:k, k:]
    return (h - np.triu(_chi_rows(h, h, d), 1) @ g) % d


def _symplectic_pairs(H: PauliSubgroup) -> tuple[np.ndarray, np.ndarray] | None:
    """(x | z) rows (a_i, b_i) of a symplectic basis of H, or None when none is found.

    Symplectic Gram-Schmidt (Koenig & Smolin, arXiv:1406.2170) over the Howell rows
    of H: the first two rows u, w whose chi is a unit mod d become the pair a = u,
    b = w / chi(u, w), and every row t is projected off it,
    t <- t - chi(t, b) a + chi(t, a) b, which leaves a and b themselves zero.  Every
    pairing has unit chi, so the m pairs are free and span d^(2m) classes: they span
    H iff |H| = d^(2m).  For a prime power d the rows left unpaired are zero unless
    H has a centre.  Over other composite d they are also left when H is not free,
    or when its Howell rows split over the prime factors of d, as for
    <X_1^2, Z_1^2, X_2^3, Z_2^3> over Z_6.  The projection runs on the (x | z)
    rows themselves, reduced mod d after each product, so no int64 product
    reaches d^2; the chi table is read afresh each round.
    """
    d, rows = H.d, H._gens
    a, b = [], []
    while len(hit := np.flatnonzero(np.gcd(chi := _chi_rows(rows, rows, d), d) == 1)):
        i, j = divmod(int(hit[0]), len(rows))  # the first unit in row-major order
        s = pow(int(chi[i, j]), -1, d)
        a.append(rows[i])
        b.append(s * rows[j] % d)
        # t - chi(t, b) a + chi(t, a) b, where chi(t, b) = s chi(t, w) and chi(t, a) = chi(t, u)
        rows = (rows - s * chi[:, j, None] % d * a[-1] % d + chi[:, i, None] * b[-1] % d) % d
    ab = np.array(a + b, dtype=np.int64).reshape(-1, rows.shape[1])
    return (ab[: len(a)], ab[len(a) :]) if H.order == d ** (2 * len(a)) else None


def encoded_subgroup(K: PauliSubgroup) -> PauliSubgroup:
    """The subgroup H of the floor(k/2) encoded qudits of an Abelian K of size d^k.

    With g = generating_set(K) and h their symplectic partners, so that h_j is
    X_j in a Clifford frame where g_j is Z_j, encoded qudit i is generated by
    a = h_{2i} and b = h_{2i-1} h_{2i} g_{2i-1} g_{2i}, that is X_{2i} and
    (XZ)_{2i-1} (XZ)_{2i} in that frame.  The x-exponents of a^s b^t there are
    (t, s + t), so H meets Ann K only in the identity, and chi(a, b) = omega, so
    the group channel of K privatizes span H = M_{d^floor(k/2)} (x) I.  For the
    diagonal qubit group the pairs are X_{2i} and Y_{2i-1} Y_{2i}.  Any d >= 2; a
    non-Abelian K, or one with a Howell pivot entry other than 1, is refused.
    """
    g, h = K._gens, _partner_rows(K._gens, K.d)
    pairs = [h[1::2], h[:-1:2] + h[1::2] + g[:-1:2] + g[1::2]]  # the a_i, then the b_i
    return PauliSubgroup._span(K.d, K.n, np.vstack(pairs))


def extend_to_maximal(K: PauliSubgroup) -> PauliSubgroup:
    """Deterministically grow an Abelian subgroup to one of size d^n, any d >= 2.

    Each round adjoins the canonically smallest class g of Ann K \\ K, K being the
    group grown so far; the result is Abelian of size exactly d^n and contains
    the input.  Ann K is solved for once, with the variables ordered by their
    significance in the canonical class order (z_n, x_n, ..., z_1, x_1), so its Howell
    rows from row j on span exactly its elements that vanish before pivot j.  A row
    lies in K = Ann Ann K iff it commutes with every row; with j the last that does
    not, g is row j reduced by the rows after it.  Each round then adds the constraint
    chi(g, v) = 1 to Ann K: one Howell form of at most 2n + 1 rows, O(n^3) per round.
    """
    if not is_abelian(K):
        raise PreconditionError("extend_to_maximal requires an Abelian subgroup")
    d, n = K.d, K.n
    order = np.arange(2 * n).reshape(2, n)[::-1, ::-1].T.reshape(-1)  # z_n, x_n, ..., x_1
    back = np.argsort(order)
    h = None
    while K.order < d**n:  # |K| |Ann K| = d^(2n), so Ann K is larger than K
        h, pivots = _commuting(K._gens if h is None else g[None], d, order, h)
        j = np.flatnonzero(_chi_rows(h[:, back], h[:, back], d).any(axis=1))[-1]
        after = PauliSubgroup._from_howell(d, n, h[j + 1 :], pivots[j + 1 :])
        g = _residue(h[j : j + 1], after)[0, back]
        K = PauliSubgroup._span(d, n, np.vstack([K._gens, g]))
    return K


def diagonal_subgroup(d: int, n: int) -> PauliSubgroup:
    """The maximal Abelian subgroup of all x = 0 classes (diagonal operators)."""
    zs = [(0,) * k + (1,) + (0,) * (n - k - 1) for k in range(n)]
    return close([PauliClass(d, n, (0,) * n, z) for z in zs], d=d, n=n)
