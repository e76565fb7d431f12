"""The cross-Wigner kernels with their Laguerre recurrence written out.

The reference that the package's kernel table (wigner.fock_kernel_values)
and everything built from it are checked against; it calls nothing from
the package.
"""

import math

import numpy as np


def kernel_reference(x, p, dim):
    """K[m, n](x, p) for m, n < dim as a complex (points, dim, dim) array.

    For m >= n, with u = x^2 + p^2, xi = x - ip and d = m - n,

        K[m, n] = ((-1)^n / pi) sqrt(2^d n! / m!) xi^d e^{-u} L_n^(d)(2u),

    and K[n, m] = conj(K[m, n]). Each of its real and imaginary parts is
    formed as ((+-B Re/Im xi^d) L) (e^{-u} / pi), in that order.
    """
    u = x * x + p * p
    two_u = 2.0 * u
    xi = x - 1j * p
    envelope = np.exp(-u) / math.pi
    out = np.empty((x.size, dim, dim), dtype=complex)
    for off in range(dim):
        xipow = xi**off if off else np.ones_like(xi)
        coupling = math.sqrt(2.0**off / math.gamma(off + 1))
        lag_prev, lag = np.zeros(0), np.ones(x.size)
        for n in range(dim - off):
            if n == 1:
                lag_prev, lag = lag, (1.0 + off) - two_u
            elif n > 1:
                lag_prev, lag = lag, (
                    (2.0 * n - 1.0 + off - two_u) * lag - (n - 1.0 + off) * lag_prev
                ) / n
            if n > 0:
                coupling *= math.sqrt(n / (n + off))
            scale = (-1.0 if n % 2 else 1.0) * coupling
            out.real[:, n + off, n] = ((scale * xipow.real) * lag) * envelope
            out.imag[:, n + off, n] = ((scale * xipow.imag) * lag) * envelope
            if off:
                out[:, n, n + off] = np.conj(out[:, n + off, n])
    return out
