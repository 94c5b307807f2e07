"""Reference implementations the tests check the program against.

The resultant oracle is the determinant of the Sylvester matrix, evaluated
by fraction-free Bareiss elimination: a route independent of the
subresultant remainder sequence that ``modpoints.poly.resultant`` follows.
"""

from modpoints.poly import MultiPoly, _univariate_coefficients, try_divide


def sylvester_matrix(f: MultiPoly, g: MultiPoly, name: str) -> list:
    """Sylvester matrix of f and g with respect to ``name``."""
    n, m = f.degree_in(name), g.degree_in(name)
    if n <= 0 and m <= 0:
        raise ValueError("both polynomials are constant in the variable")
    cf = _univariate_coefficients(f, name)
    cg = _univariate_coefficients(g, name)
    size = n + m
    zero = MultiPoly.zero()
    rows = []
    for shift in range(m):
        row = [zero] * size
        for d, c in cf.items():
            row[shift + (n - d)] = c
        rows.append(row)
    for shift in range(n):
        row = [zero] * size
        for d, c in cg.items():
            row[shift + (m - d)] = c
        rows.append(row)
    return rows


def bareiss_resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Res(f, g) in ``name`` by fraction-free Bareiss elimination."""
    n, m = f.degree_in(name), g.degree_in(name)
    if n < 0 or m < 0:
        return MultiPoly.zero()
    if n == 0:
        return f ** m
    if m == 0:
        return g ** n
    matrix = sylvester_matrix(f, g, name)
    size = len(matrix)
    sign = 1
    previous = MultiPoly.constant(1)
    for k in range(size - 1):
        if matrix[k][k].is_zero:
            pivot = next((r for r in range(k + 1, size) if not matrix[r][k].is_zero), None)
            if pivot is None:
                return MultiPoly.zero()
            matrix[k], matrix[pivot] = matrix[pivot], matrix[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                numerator = matrix[k][k] * matrix[i][j] - matrix[i][k] * matrix[k][j]
                cell = try_divide(numerator, previous)
                assert cell is not None, "Bareiss division must be exact"
                matrix[i][j] = cell
            matrix[i][k] = MultiPoly.zero()
        previous = matrix[k][k]
    return sign * matrix[size - 1][size - 1]
