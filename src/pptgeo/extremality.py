"""Extreme-point test for the PPT convex body, solved in face coordinates.

A PPT state X of type (p, q) determines the face given by the range D of X
and the range E of its partial transpose.  X is an extreme point iff the real
space of hermitian Z with Z supported on D and Z^Gamma supported on E is
one-dimensional (Leinaas, Myrheim & Ovrum, PRA 76, 034304, 2007).  Z -> Z^Gamma
maps that space one-to-one onto the same space for X^Gamma, whose ranges are
E and D, so the system is posed for Y, the one of X and X^Gamma with the
smaller range (X when p <= q).  Writing Z = D H D^dagger, with D the range
basis of Y and H hermitian on its min(p, q) coordinates, leaves one
condition, F^dagger Z^Gamma = 0 with F an orthonormal basis of the kernel of
Y^Gamma; the intersection is the kernel of that real
(2 mn (mn - max(p, q))) x min(p, q)^2 system.  An extreme verdict is
certified by one Cholesky factorisation (:func:`~pptgeo.linalg.has_full_rank`
of the system with Y's own coordinates appended), and the singular values of
one values-only SVD count every other dimension.  Its coordinates are a real
r x r matrix X, r = min(p, q), with
H = sym X + i antisym X: the map is an isometry onto Herm(r), so
X = Re H + Im H, and the diagonal of X is that of H.  The system is
assembled from D and F alone by :func:`_face_system`, one contraction over
the tensor indices and its transpose, without forming any Z or any basis of
Herm(r).  X lies in its own face, so an extreme X is its own generator.
D, F, the bases of :func:`face_of` and Y's own coordinates are read off the
spectra and ranks that each state caches, so no basis is computed twice.  Y
must satisfy its system to within ROUNDOFF: a rank decision that drops an
eigenvalue above rounding leaves a smaller face, which reads more extreme,
so it raises NumericalError instead.  Every spectrum read here is PSD and
descending, so its range is its first rank entries and its kernel the rest:
each basis is a slice of the cached eigenvectors.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    ROUNDOFF,
    NumericalError,
    has_full_rank,
    orthonormal_system_rank,
    unit_scaled,
)
from .states import (BipartiteMatrix, _positive, _pt, _turn, is_ppt, normalize, partial_transpose, rho,
                     state_type)


@dataclass(frozen=True)
class ExtremalityReport:
    dim_ker_D: int
    dim_ker_E: int
    dim_intersection: int
    is_extreme: bool
    generator: Optional[BipartiteMatrix]


@dataclass(frozen=True, eq=False)
class FaceSpec:
    """Orthonormal bases (columns) of the two range subspaces defining a
    face: read-only views of the states' cached eigenvectors.  It compares
    and hashes by identity."""

    D: np.ndarray
    E: np.ndarray


def face_of(X: BipartiteMatrix) -> FaceSpec:
    """Range bases of a PPT X and of its partial transpose: the leading
    eigenvectors of the two cached spectra, as read-only views of them.  A
    PSD spectrum is descending, so its range mask is its first rank entries."""
    if not is_ppt(X):
        raise ValueError("face_of requires a PPT input")
    return FaceSpec(*(Y.spectrum[1][:, :Y._rank] for Y in (X, partial_transpose(X))))


def is_extreme_in_T(X: BipartiteMatrix) -> ExtremalityReport:
    """Extremality of a nonzero PPT state in the PPT convex body.

    dim_ker_D and dim_ker_E are p^2 and q^2, the real dimensions of the
    hermitian matrices supported on D and on E.  The generator of an extreme
    X is normalize(X); NumericalError if the face system does not contain X.

    The dimension is r^2 minus the rank of the face system M, r = min(p, q).
    An extreme verdict needs no singular values: when M has at least
    r^2 - 1 rows, :func:`~pptgeo.linalg.has_full_rank` is asked of A, M with
    Y's coordinates c appended as one more row.  Appending a row interlaces
    the singular values, so sigma_{r^2-1}(M) >= sigma_min(A), which a True
    puts above CUTOFF max(1, ||A||) >= CUTOFF max(1, ||M||); and the
    membership check gives sigma_min(M) <= ||M c|| / ||c|| <= ROUNDOFF, below
    it.  So the SVD would count exactly r^2 - 1: the dimension is 1 and no
    SVD runs.  Otherwise one values-only SVD of M counts it; sigma's 18 x 36
    system is too wide to be certified, and a non-extreme X fails the
    certificate."""
    if not is_ppt(X):
        raise ValueError("is_extreme_in_T requires a PPT input")
    XT = partial_transpose(X)
    ty = state_type(X)
    p, q = ty.p, ty.q
    # only the zero matrix has an empty range mask
    if p == 0:
        raise ValueError("the zero matrix has no extremality report")
    # The system is posed for Y, whichever of X and X^Gamma has the smaller
    # range D (see the module docstring); Y^Gamma is the other one, and F,
    # the complement of its range, is the kernel half of its cached spectrum.
    # Both spectra are PSD and descending, so D is the first r eigenvectors
    # of Y and F the eigenvectors of Y^Gamma past its rank max(p, q).
    Y, YT = (X, XT) if p <= q else (XT, X)
    r = min(p, q)
    D, F = Y.spectrum[1][:, :r], YT.spectrum[1][:, max(p, q):]
    M = _face_system(D, F, X.m, X.n)
    # X lies in its own face, so Y must satisfy the system up to rounding;
    # its coordinates are read off its spectrum
    residual, bound, c = _membership(Y, M)
    if residual > bound:
        raise NumericalError("the state is not in its own face system: a rank decision dropped "
                             "an eigenvalue above rounding, so the face is undecided")
    # c is a null vector of M up to rounding: when M with c appended as a row
    # has full rank, the rest of M has too (see the docstring)
    if len(M) >= r * r - 1:
        A = np.zeros((len(M) + 1, r * r))
        A[:-1], A[-1, ::r + 1] = M, c
        if has_full_rank(A):
            return ExtremalityReport(p * p, q * q, 1, True, normalize(X))
    # D and F are orthonormal and X -> H an isometry, so ||M|| <= 1.
    dim = r * r - orthonormal_system_rank(np.linalg.svd(M, compute_uv=False))
    return ExtremalityReport(p * p, q * q, dim, dim == 1, normalize(X) if dim == 1 else None)


def _membership(Y: BipartiteMatrix, M: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(||M c||, ROUNDOFF ||c||, c_D) for the face system M of
    :func:`is_extreme_in_T` and Y's coordinates c, whose nonzero entries are
    c_D; Y lies in its own face system when the first is at most the
    second, the ROUNDOFF rule.

    c = Re C + Im C for the compression C = D^dagger U D, U = Y 2^-e with e
    the ``math.frexp`` exponent of Y's largest eigenvalue, is read off Y's
    spectrum: D holds Y's own eigenvectors, so C is diag(w_D) 2^-e, and c is
    w_D 2^-e on the r diagonal columns s r + s of M and 0 on the rest.  The
    scaling keeps the norms from overflowing; a power of two scales exactly,
    so e moves both by one factor and not the verdict.
    M c = [Re; Im] F^dagger (P_D U P_D)^Gamma is nonzero only by the
    eigenvalues that the rank decisions drop from U and from U^Gamma, so it
    passes the bound when one of them lies above rounding: the face is then
    undecided.  The spectrum is PSD and descending, so w_D is the first
    r = rank Y eigenvalues and w[0] the largest magnitude.  Each norm is
    sqrt(x . x), what np.linalg.norm takes of a real vector."""
    w, r = Y.spectrum[0], Y._rank
    c = np.ldexp(w[:r], -math.frexp(w[0])[1])
    return _norm(M[:, ::r + 1] @ c), ROUNDOFF * _norm(c), c


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a real vector, as np.linalg.norm computes it."""
    return math.sqrt(x.dot(x))


def _face_system(D: np.ndarray, F: np.ndarray, m: int, n: int) -> np.ndarray:
    """The real face system of :func:`is_extreme_in_T`: the matrix of
    X -> [Re; Im] F^dagger (D H D^dagger)^Gamma, H = sym X + i antisym X, over
    the real r x r matrices X, r = D.shape[1], with rows (part, f, j, b) and
    column s r + t for X[s, t].

    With i, j indexing the first factor and a, b the second,
    F^dagger (D H D^dagger)^Gamma [f, (j, b)] = sum_{s,t} H[s, t] N[(f, j, b), (s, t)],
    N[(f, j, b), (s, t)] = sum_{i,a} conj(F[(i, a), f]) D[(j, a), s] conj(D[(i, b), t]),
    contracted first over a and then over i.  A unit X[s, t] gives H the
    entries (1 + i)/2 at (s, t) and (1 - i)/2 at (t, s), so its column is
    ((1 + i) N + (1 - i) N^T) / 2 with N^T[(s, t)] = N[(t, s)]."""
    r, f = D.shape[1], F.shape[1]
    D3 = D.reshape(m, n, r)
    # G[(i, f), (j, s)] = sum_a conj(F[(i, a), f]) D[(j, a), s]
    Fc = F.conj().reshape(m, n, f).transpose(0, 2, 1).reshape(m * f, n)
    G = Fc @ D3.transpose(1, 0, 2).reshape(n, m * r)
    # N[(f, j, s), (b, t)] = sum_i G[(i, f), (j, s)] conj(D[(i, b), t])
    N = G.reshape(m, f * m * r).T @ D3.conj().reshape(m, n * r)
    N = N.reshape(f, m, r, n, r).transpose(0, 1, 3, 2, 4).reshape(f * m * n, r, r)
    W = ((1 + 1j) * N + (1 - 1j) * N.transpose(0, 2, 1)).reshape(f * m * n, r * r) / 2
    return np.concatenate([W.real, W.imag])


def _check_appendix_b(b: float) -> None:
    """b in the domain of :func:`~pptgeo.states._positive`, and
    NumericalError unless b^2 and 1/b^2, held by the bases, are finite: the
    one floating-point range of the appendix."""
    _positive("b", b)
    if not 0 < b * b < math.inf or 1 / (b * b) == math.inf:
        raise NumericalError(f"appendix basis out of floating-point range at b={b!r}")


# The appendix bases at the face of rho(b, theta) as term tables, one string
# per basis element and one term per nonzero entry.  The term "rc<coefficient>"
# puts the coefficient at row r, column c (1-based, the paper's E(r, c)).  A
# coefficient is a sign, an optional i and a product (*) or quotient (/) of
# 1, e = e^{i theta}, ec = e^{-i theta}, their squares e2 and ec2, b and b2.
_X_TERMS = (
    "11+1 55+1 15-1 51-1",
    "11+1 99+1 19-1 91-1",
    "55+1 99+1 59-1 95-1",
    "19+i 15-i 59-i 91-i 51+i 95+i",
    "24+ec 42+e 44-b 22-1/b",
    "68+ec 86+e 88-b 66-1/b",
    "73+ec 37+e 33-b 77-1/b",
    "29+ec 21-ec 92+e 12-e 14+b 41+b 49-b 94-b",
    "71+ec 75-ec 17+e 57-e 35+b 53+b 13-b 31-b",
    "79+ec 71-ec 97+e 17-e 13+b 31+b 39-b 93-b",
    "61+ec 65-ec 16+e 56-e 58+b 85+b 18-b 81-b",
    "69+ec 61-ec 96+e 16-e 18+b 81+b 89-b 98-b",
    # Signs on the (2,5)/(5,2) couplings must oppose the (2,1)/(1,2)
    # ones, or the matrix fails to annihilate the face's kernel vectors.
    "21-ec 25+ec 12-e 52+e 14+b 41+b 45-b 54-b",
    "13+ec 53-ec 31+e 35-e 57+1/b 75+1/b 17-1/b 71-1/b",
    "13+ec 93-ec 31+e 39-e 97+1/b 79+1/b 17-1/b 71-1/b",
    "14+ec 54-ec 41+e 45-e 25+1/b 52+1/b 12-1/b 21-1/b",
    "14+ec 94-ec 41+e 49-e 29+1/b 92+1/b 12-1/b 21-1/b",
    "18+ec 98-ec 81+e 89-e 69+1/b 96+1/b 16-1/b 61-1/b",
    "58+ec 18-ec 85+e 81-e 16+1/b 61+1/b 56-1/b 65-1/b",
    "63+ec 78+ec 36+e 87+e 38-b 83-b 67-1/b 76-1/b",
    "23-ec 74-ec 32-e 47-e 34+b 43+b 27+1/b 72+1/b",
    "28-ec 64-ec 82-e 46-e 48+b 84+b 26+1/b 62+1/b",
    "67+ec 83+ec*b2 63-ec2*b 76+e 38+e*b2 36-e2*b 78-b 87-b",
    "48+ec 26+ec/b2 28-ec2/b 84+e 62+e/b2 82-e2/b 46-1/b 64-1/b",
    "43-ec 27-ec/b2 23+ec2/b 34-e 72-e/b2 32+e2/b 47+1/b 74+1/b",
)
_Y_TERMS = (
    "11+1 55+1 24-1 42-1",
    "11+1 99+1 37-1 73-1",
    "55+1 99+1 68-1 86-1",
    "37+i 42+i 86+i 73-i 24-i 68-i",
    "19+ec 91+e 33-b 77-1/b",
    "51+ec 15+e 44-b 22-1/b",
    "95+ec 59+e 88-b 66-1/b",
    "21+ec 83-ec 12+e 38-e 67+b 76+b 14-b 41-b",
    "21+ec 52-ec 12+e 25-e 45+b 54+b 14-b 41-b",
    "34+ec 65-ec 43+e 56-e 58+b 85+b 27-b 72-b",
    "34+ec 96-ec 43+e 69-e 89+b 98+b 27-b 72-b",
    "48+ec 17-ec 84+e 71-e 13+b 31+b 26-b 62-b",
    "79+ec 17-ec 97+e 71-e 13+b 31+b 39-b 93-b",
    "26+ec 13-ec 62+e 31-e 17+1/b 71+1/b 48-1/b 84-1/b",
    "39+ec 13-ec 93+e 31-e 17+1/b 71+1/b 79-1/b 97-1/b",
    "41+ec 54-ec 14+e 45-e 25+1/b 52+1/b 12-1/b 21-1/b",
    "67+ec 41-ec 76+e 14-e 12+1/b 21+1/b 38-1/b 83-1/b",
    "72+ec 85-ec 27+e 58-e 56+1/b 65+1/b 34-1/b 43-1/b",
    "72+ec 98-ec 27+e 89-e 69+1/b 96+1/b 34-1/b 43-1/b",
    "36+ec 78+ec 63+e 87+e 29-b 92-b 49-1/b 94-1/b",
    "64-ec 82-ec 46-e 28-e 57+b 75+b 35+1/b 53+1/b",
    "36+ec2*b 94-ec 29-ec*b2 63+e2*b 49-e 92-e*b2 78+b 87+b",
    "82+ec2/b 53-ec/b2 75-ec 28+e2/b 35-e/b2 57-e 46+1/b 64+1/b",
    "23+ec2 16-ec*b 81-ec/b 32+e2 61-e*b 18-e/b 47+1 74+1",
    "47+ec2 61-ec*b 18-ec/b 74+e2 16-e*b 81-e/b 23+1 32+1",
)

# A coefficient's sign and i as an index into _UNIT_VALUES, and each factor
# as its (e exponent, b exponent).
_UNITS = {"+": 0, "-": 1, "+i": 2, "-i": 3}
_FACTORS = {"1": (0, 0), "e": (1, 0), "ec": (-1, 0), "e2": (2, 0), "ec2": (-2, 0), "b": (0, 1), "b2": (0, 2)}


def _term_table(elements):
    """(element, row, column, code) read-only index arrays of a term table;
    code indexes the vector of :func:`_coefficients`."""
    rows = []
    for k, terms in enumerate(elements):
        for term in terms.split():
            unit, product = re.fullmatch(r"\d\d([+-]i?)(.*)", term).groups()
            ke = kb = 0
            for op, name in re.findall(r"([*/]?)(\w+)", product or "1"):
                de, db = _FACTORS[name]
                sign = -1 if op == "/" else 1
                ke, kb = ke + sign * de, kb + sign * db
            code = (5 * _UNITS[unit] + ke + 2) * 5 + kb + 2
            rows.append((k, int(term[0]) - 1, int(term[1]) - 1, code))
    table = tuple(np.array(rows).T)
    for a in table:
        a.flags.writeable = False
    return table


_X_TABLE, _Y_TABLE = _term_table(_X_TERMS), _term_table(_Y_TERMS)
_UNIT_VALUES = np.array([1, -1, 1j, -1j])


def _coefficients(b: float, theta: float) -> np.ndarray:
    """The 100 values u e^{ik theta} b^j, for u in (1, -1, i, -i) and k, j in
    -2..2, at code (5 u + k + 2) 5 + j + 2.  e^{+-2i theta} b^j is taken as
    e^{+-i theta} (b^j e^{+-i theta}), the order of the printed formulas, and
    each u is applied last, so a coefficient and its conjugate partner are
    exact conjugates up to the sign of a zero: every matrix is hermitian."""
    e = np.exp(1j * theta)
    ec = np.conj(e)
    once = np.array([[ec], [1], [e]]) * np.array([1 / (b * b), 1 / b, 1, b, b * b])
    phased = np.concatenate([ec * once[:1], once, e * once[2:]])
    return (_UNIT_VALUES[:, None, None] * phased).ravel()


def _appendix_basis(table, b: float, theta: float) -> list[np.ndarray]:
    """The 25 matrices of a term table at (b, theta), scattered at once."""
    _check_appendix_b(b)
    _turn(theta)
    element, row, col, code = table
    out = np.zeros((25, 9, 9), dtype=complex)
    out[element, row, col] = _coefficients(b, theta)[code]
    return list(out)


def appendix_basis_X(b: float, theta: float) -> list[np.ndarray]:
    """The 25 hermitian matrices spanning ker(phi_D) for the face of
    rho(b, theta), built from the term table ``_X_TERMS``."""
    return _appendix_basis(_X_TABLE, b, theta)


def appendix_basis_Y(b: float, theta: float) -> list[np.ndarray]:
    """The hermitian matrices listed for ker(phi_E) at the face of
    rho(b, theta), built from the term table ``_Y_TERMS``.  The source list
    repeats two entries verbatim; the repeats are dropped, leaving 25
    distinct formulas.  The achieved span dimension is what
    :func:`basis_span_rank` reports, not an assumption."""
    return _appendix_basis(_Y_TABLE, b, theta)


def basis_span_rank(mats: list[np.ndarray]) -> int:
    """Real-linear span dimension of a (k, r, c) stack, or a list, of finite
    complex matrices; for hermitian ones, their span in Herm(d).  Each matrix
    is unit-scaled, so that the rank does not depend on how the elements'
    sizes compare (the appendix bases hold b^2 next to 1), and the real and
    imaginary parts of its entries make one row.  A nonzero row's largest
    entry lies in [1/2, 1), but the rows are not orthonormal: the largest
    singular value of the X basis at (2, pi/6) is about 3.0, so the rule's
    max(1, s[0]) is s[0] there.  Rows of full rank under
    :func:`orthonormal_system_rank` are certified by
    :func:`~pptgeo.linalg.has_full_rank`, with no SVD; any others are ranked
    by that rule on the values of one SVD.  For hermitian matrices the rows
    are an isometric image of the real coordinates Re H + Im H of the face
    system, so the singular values are theirs."""
    rows = unit_scaled(mats)[0]
    if rows.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {rows.shape}")
    rows = rows.reshape(len(rows), -1).view(float)
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries must be finite")
    if has_full_rank(rows):
        return min(rows.shape)
    return orthonormal_system_rank(np.linalg.svd(rows, compute_uv=False))


@dataclass(frozen=True)
class CombinationIdentityReport:
    """Residuals of the explicit linear combinations reconstructing
    rho(b, theta) from the X and Y bases (valid on the central arc)."""

    x_residual: float
    y_residual_last_x7: float
    y_residual_last_y7: float
    ok: bool


def verify_combination_identity(b: float, theta: float) -> CombinationIdentityReport:
    """Check rho(b,theta) = cos(theta)(X1+X2+X3) + sin(theta) X4 - X5 - X6 - X7
    and both readings of the analogous Y combination (whose printed last term
    is ambiguous between -X7 and -Y7); ok when the X residual, relative to
    the Frobenius norm of rho, is within ROUNDOFF.  The norms are taken with
    rho and the three differences unit-scaled together, so they stay finite
    wherever the bases do."""
    target = rho(b, theta).data
    xs, ys = appendix_basis_X(b, theta), appendix_basis_Y(b, theta)
    c, s = np.cos(theta), np.sin(theta)
    combo_x = c * (xs[0] + xs[1] + xs[2]) + s * xs[3] - xs[4] - xs[5] - xs[6]
    y_head = c * (ys[0] + ys[1] + ys[2]) - s * ys[3] - ys[4] - ys[5]
    # one matrix of the four stacked, so that they share one exponent
    scaled = unit_scaled(np.concatenate([target, target - combo_x, target - (y_head - xs[6]),
                                         target - (y_head - ys[6])]))[0]
    scale, *norms = (np.linalg.norm(M) for M in np.split(scaled, 4))
    rx, ry_x7, ry_y7 = (float(r / scale) for r in norms)
    return CombinationIdentityReport(rx, ry_x7, ry_y7, rx <= ROUNDOFF)


@dataclass(frozen=True)
class AppendixReport:
    """Membership residuals, span ranks and combination-identity residuals of
    the appendix bases at the face of rho(b, theta)."""

    x_membership_max_residual: float
    y_membership_max_residual: float
    x_span_rank: int
    y_span_rank: int
    x_combination_residual: float
    y_combination_residual_last_x7: float
    y_combination_residual_last_y7: float


def verify_appendix(b: float, theta: float) -> AppendixReport:
    """Check the appendix bases against the face of rho(b, theta).

    The membership residuals are max ||P_D M P_D - M||_F / ||M||_F over the
    X basis and max ||(P_E M^Gamma P_E)^Gamma - M||_F / ||M||_F over the Y
    basis; the real vectorization is an isometry, so they equal the norms of
    phi_D and phi_E applied to the unit basis elements.  They are taken on
    the unit-scaled stacks, each element scaled by its own power of two,
    which moves neither ratio, so every b that the bases themselves hold
    (:func:`_check_appendix_b`) reports finite residuals.  The combination
    residuals are those of :func:`verify_combination_identity`."""
    X = rho(b, theta)
    face = face_of(X)
    P_D = face.D @ face.D.conj().T
    P_E = face.E @ face.E.conj().T
    xs = np.array(appendix_basis_X(b, theta))
    ys = np.array(appendix_basis_Y(b, theta))
    (xu, _), (yu, _) = unit_scaled(xs), unit_scaled(ys)
    x_norms, y_norms = (np.linalg.norm(B, axis=(1, 2)) for B in (xu, yu))
    x_res = (np.linalg.norm(P_D @ xu @ P_D - xu, axis=(1, 2)) / x_norms).max()
    yu_E = _pt(P_E @ _pt(yu, X.m, X.n) @ P_E, X.m, X.n)
    y_res = (np.linalg.norm(yu_E - yu, axis=(1, 2)) / y_norms).max()
    ident = verify_combination_identity(b, theta)
    return AppendixReport(
        float(x_res),
        float(y_res),
        basis_span_rank(xs),
        basis_span_rank(ys),
        ident.x_residual,
        ident.y_residual_last_x7,
        ident.y_residual_last_y7,
    )
