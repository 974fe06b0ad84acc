"""Irreducible components of the chain state spaces, with exact eigenvalues.

The unsigned chains live on the C(n,r) arrangements of r indistinguishable
rack-1 slots among n labeled balls; the transition kernel is constant on the
orbits of the symmetric group, so it acts as a scalar on each irreducible
component of the permutation module.  Those components are indexed by two-row
shapes [n-i, i] for i = 0..r, each appearing once.

The signed chains live on the 2^n * C(n,r) charged arrangements.  Components
are indexed by pairs of two-row shapes ([j-l, l]; [n-j-m, m]) and can repeat;
the multiplicity is the number of admissible splits i of the r rack-1 balls
between the two shapes.  Everything here is exact: dimensions and
multiplicities are integers, eigenvalues are fractions.

catalog_entries(model) is the one way to the rows; spectral sums read
bounds.spectral_measure, which groups _components by eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .models import Family, ModelSpec


def dim_two_row(n: int, i: int) -> int:
    """Dimension C(n,i) - C(n,i-1) of the two-row component [n-i, i]."""
    if not 0 <= i <= n // 2:
        raise ValueError(f"two-row shape needs 0 <= i <= n/2, got n={n}, i={i}")
    return comb(n, i) - comb(n, i - 1) if i else 1


# ---------------------------------------------------------------------------
# eigenvalues
#
# Each kernel is an average of transpositions (plus holds and charge flips),
# so its eigenvalue on a component is an affine function of the character
# ratio of a transposition there, ((n-i)(n-i-1) + i(i-3)) / (n(n-1)) on
# [n-i, i].  The closed forms below are what that works out to.
# ---------------------------------------------------------------------------


def eig_classical(n: int, r: int, i: int) -> Fraction:
    """Eigenvalue 1 - i(n-i+1)/(r(n-r)) of the forced-swap kernel on [n-i, i]."""
    if n < 2 or not 1 <= r <= n // 2:
        raise ValueError(f"bad model parameters n={n}, r={r}")
    if not 0 <= i <= r:
        raise ValueError(f"component index out of range: i={i}, r={r}")
    return 1 - Fraction(i * (n - i + 1), r * (n - r))


def eig_variant(n: int, i: int) -> Fraction:
    """Eigenvalue 1 - 2i(n-i+1)/n^2 of the lazy position-pair kernel.

    Does not depend on r.  For i = 1 this is 1 - 2/n, and the i = 2 value
    (1 - 2/n)^2 is exactly its square.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not 0 <= i <= n // 2:
        raise ValueError(f"component index out of range: i={i}, n={n}")
    return 1 - Fraction(2 * i * (n - i + 1), n * n)


def eig_independent(n: int, j: int, ell: int) -> Fraction:
    """Eigenvalue (j^2 - 2l(j-l+1)) / n^2 of the independent-flips kernel.

    Depends only on the first shape [j-l, l]; the second shape records how
    the sign character sits and does not move the eigenvalue.  Always in
    [0, 1], with 1 exactly at the trivial component (j = n, l = 0).
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    if not 0 <= ell <= j // 2:
        raise ValueError(f"two-row shape needs 0 <= l <= j/2, got j={j}, l={ell}")
    return Fraction(j * j - 2 * ell * (j - ell + 1), n * n)


def eig_paired(n: int, j: int, ell: int, m: int) -> Fraction:
    """Eigenvalue of the paired-flips kernel on ([j-l, l]; [n-j-m, m]).

    (j^2 - 2l(j-l+1) + (n-j)^2 - 2m(n-j-m+1) - (n-j)) / n^2.  Unlike the
    independent-flips case both shapes matter, and negative values occur.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    if not 0 <= ell <= j // 2:
        raise ValueError(f"two-row shape needs 0 <= l <= j/2, got j={j}, l={ell}")
    if not 0 <= m <= (n - j) // 2:
        raise ValueError(f"two-row shape needs 0 <= m <= (n-j)/2, got j={j}, m={m}")
    num = (
        j * j
        - 2 * ell * (j - ell + 1)
        + (n - j) * (n - j)
        - 2 * m * (n - j - m + 1)
        - (n - j)
    )
    return Fraction(num, n * n)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnsignedIrrep:
    """Label of the two-row component [n-i, i]."""

    i: int

    def partition_label(self, n: int) -> str:
        if self.i == 0:
            return f"[{n}]"
        return f"[{n - self.i},{self.i}]"


@dataclass(frozen=True)
class SignedIrrep:
    """Label ([j-ell, ell]; [n-j-m, m]) of a signed component."""

    j: int
    ell: int
    m: int

    def partition_label(self, n: int) -> str:
        return f"({_two_row_str(self.j, self.ell)};{_two_row_str(n - self.j, self.m)})"


def _two_row_str(total: int, second: int) -> str:
    if total == 0:
        return "[]"
    if second == 0:
        return f"[{total}]"
    return f"[{total - second},{second}]"


@dataclass(frozen=True)
class IrrepEntry:
    """One component: its label, dimension, multiplicity, and eigenvalue."""

    label: UnsignedIrrep | SignedIrrep
    dim: int
    mult: int
    eigenvalue: Fraction

    @property
    def weight(self) -> int:
        return self.dim * self.mult


def _two_row_dims(size: int, top: int) -> list[int]:
    """dim [size-i, i] for i = 0..top, by the recurrence C(s,i+1) = C(s,i)(s-i)/(i+1)."""
    dims = []
    prev, cur = 0, 1
    for i in range(top + 1):
        dims.append(cur - prev)
        prev, cur = cur, cur * (size - i) // (i + 1)
    return dims


def _eigen_den(model: ModelSpec) -> int:
    """Common denominator of a model's eigenvalues: r(n-r) classical, n^2 otherwise."""
    if model.family is Family.CLASSICAL:
        return model.r * (model.n - model.r)
    return model.n * model.n


def _components(model: ModelSpec):
    """Every component as exact integers (label, dim, mult, num), in catalog order.

    label is (i,) for the unsigned families and (j, ell, m) for the signed
    ones; the eigenvalue is num / _eigen_den(model).  Dimensions come from
    the recurrence of _two_row_dims, never from one comb per entry.  For signed
    (j, ell, m) the admissible splits i of the r rack-1 balls form the
    interval [max(ilo, r+m-(n-j)), min(ihi, r-m)], so the multiplicity is
    its length, and m runs up from 0 while that length is positive.
    """
    n, r, family = model.n, model.r, model.family
    if not family.signed:
        for i, dim in enumerate(_two_row_dims(n, r)):
            if family is Family.CLASSICAL:
                num = r * (n - r) - i * (n - i + 1)
            else:
                num = n * n - 2 * i * (n - i + 1)
            yield (i,), dim, 1, num
        return
    paired = family is Family.PAIRED_FLIPS
    dims = [_two_row_dims(s, s // 2) for s in range(n + 1)]
    choose = 1  # C(n, j)
    for j in range(n + 1):
        rest = n - j
        for ell in range(j // 2 + 1):
            ilo = max(ell, r - rest)
            ihi = min(r, j - ell)
            if ilo > ihi:
                continue
            first = j * j - 2 * ell * (j - ell + 1)
            outer = choose * dims[j][ell]
            m = 0
            while (mult := min(ihi, r - m) - max(ilo, r + m - rest) + 1) > 0:
                num = first + rest * rest - 2 * m * (rest - m + 1) - rest if paired else first
                yield (j, ell, m), outer * dims[rest][m], mult, num
                m += 1
        choose = choose * rest // (j + 1)


def catalog_entries(model: ModelSpec) -> list[IrrepEntry]:
    """The component table of a model, in (i) or (j, l, m) order.

    Unsigned families list [n-i, i] for i = 0..r, each once; the dims sum
    to C(n,r).  Signed families list ([j-l, l]; [n-j-m, m]) with dimension
    C(n,j) * dim[j-l,l] * dim[n-j-m,m] and a multiplicity that counts the
    admissible splits i (rack-1 balls carried by the first shape): i runs
    over max(l, r-(n-j)) .. min(r, j-l) subject to m <= min(r-i, (n-j)-(r-i)).
    The weighted dims sum to 2^n * C(n,r).  Each distinct eigenvalue is
    one shared Fraction.
    """
    den = _eigen_den(model)
    label = SignedIrrep if model.family.signed else UnsignedIrrep
    lams: dict[int, Fraction] = {}
    entries = []
    for idx, dim, mult, num in _components(model):
        lam = lams.get(num)
        if lam is None:
            lam = lams[num] = Fraction(num, den)
        entries.append(IrrepEntry(label=label(*idx), dim=dim, mult=mult, eigenvalue=lam))
    return entries


def trivial_label(model: ModelSpec) -> UnsignedIrrep | SignedIrrep:
    """The label carrying the constant functions (eigenvalue 1)."""
    if model.family.signed:
        return SignedIrrep(model.n, 0, 0)
    return UnsignedIrrep(0)


def total_weight(entries: list[IrrepEntry]) -> int:
    """Sum of dim * mult over the entries (should equal the space size)."""
    return sum(e.weight for e in entries)
