"""Small exact integer matrix helpers (dense, rank <= 10 or so)."""

from __future__ import annotations

from operator import mul

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def det(a: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_integral(a: Matrix, b) -> tuple[int, ...]:
    """Solve a x = b by Cramer's rule and require an integer solution; raises
    ValueError if a is singular or the solution is not integral."""
    d = det(a)
    if d == 0:
        raise ValueError("singular matrix")
    x = []
    for i in range(len(a)):
        di = det(tuple(row[:i] + (bi,) + row[i + 1 :] for row, bi in zip(a, b)))
        if di % d != 0:
            raise ValueError(f"no integral solution of {a} x = {b}")
        x.append(di // d)
    return tuple(x)
