"""Tiny exact linear algebra: Gaussian elimination mod p and over Fraction."""

from __future__ import annotations

from fractions import Fraction


def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rref rows, pivot columns)."""
    mat = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank_mod(rows: list[list[int]], p: int) -> int:
    return len(rref_mod(rows, p)[1])


def kernel_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel {v : M v = 0} over F_p."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots = rref_mod(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-mat[r][f]) % p
        basis.append(v)
    return basis


def solve_affine_mod(rows: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """One solution of M x = b over F_p with free variables set to 0, or None."""
    if not rows:
        return []
    aug = [[v % p for v in row] + [b % p] for row, b in zip(rows, rhs)]
    mat, pivots = rref_mod(aug, p)
    ncols = len(rows[0])
    for row in mat:
        if any(row[:ncols]):
            continue
        if row[ncols]:
            return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = mat[r][ncols]
    return x


def rank_fraction(rows: list[list[Fraction]]) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
