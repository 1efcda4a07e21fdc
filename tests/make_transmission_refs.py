"""Reference transmitted probabilities of opaque symmetric double barriers.

Prints the constants that ``test_wavepacket.py`` holds ``total_transmission``
to: the double (V0, a, r) = (0.4, a, 500) at m = 1 under a Gaussian packet
at p = 0.35, sigma_p = 0.0035, for a = 8, 11, 14 and 28. Run from the
repository root with mpmath installed:

    python tests/make_transmission_refs.py

Each value is int dk/(2pi) |T|^2 u~0(k - p)^2 over the packet window,
evaluated in 40-digit arithmetic and printed to 30. |T|^2 = 1/|D|^2 comes
from the closed form of the double barrier, D = (cosh x - i eta sinh x)^2
e^{-ikr} + rho^2 sinh^2 x e^{ikr} with x = lambda a, not from the
Fabry-Perot form that the library integrates. The k integral is split at
every resonance, a root of psi = 2kr + 2 arctan(eta tanh x) = (2n + 1) pi,
with breakpoints graded by factors of 10 around it from its half-width in
k, 2q/psi' with q = 1/(1 + 2 rho^2 sinh^2 x), which lies far below ulp(k)
in double precision at these widths.
"""

import mpmath as mp

mp.mp.dps = 40
M, V0, R, P, SIGMA = 1, mp.mpf("0.4"), 500, mp.mpf("0.35"), mp.mpf("0.0035")
WIDTHS = (8, 11, 14, 28)


def barrier(k, a):
    """(x, eta, rho) of one square barrier of width a at momentum k."""
    E = mp.sqrt(k * k + M * M)
    gap = E - V0
    lam = mp.sqrt(M * M - gap * gap)
    e = (lam / k) * (E - M) / (M - mp.sqrt(M * M - lam * lam))
    return lam * a, (e - 1 / e) / 2, (e + 1 / e) / 2


def t_abs2(k, a):
    x, eta, rho = barrier(k, a)
    ch, sh = mp.cosh(x), mp.sinh(x)
    D = (ch - 1j * eta * sh) ** 2 * mp.expj(-k * R) + rho ** 2 * sh ** 2 * mp.expj(k * R)
    return 1 / abs(D) ** 2


def psi(k, a):
    x, eta, _ = barrier(k, a)
    return 2 * k * R + 2 * mp.atan(eta * mp.tanh(x))


def envelope2(k):
    return mp.sqrt(2 * mp.pi / SIGMA ** 2) * mp.exp(-(k - P) ** 2 / (2 * SIGMA ** 2))


def transmission(a):
    lo, hi = P - 8 * SIGMA, P + 8 * SIGMA
    points = [lo, hi]
    n = int(mp.floor((psi(lo, a) / mp.pi - 1) / 2)) + 1
    while (2 * n + 1) * mp.pi < psi(hi, a):
        target = (2 * n + 1) * mp.pi
        k_n = mp.findroot(lambda k: psi(k, a) - target, (lo, hi), solver="anderson")
        x, _, rho = barrier(k_n, a)
        q = 1 / (1 + 2 * rho ** 2 * mp.sinh(x) ** 2)
        h = 2 * q / mp.diff(lambda k: psi(k, a), k_n)
        points.append(k_n)
        for j in range(60):
            d = h * mp.mpf(10) ** j
            if d > hi - lo:
                break
            points += [k_n - d, k_n + d]
        n += 1
    points = sorted(p for p in set(points) if lo <= p <= hi)
    return mp.quad(lambda k: t_abs2(k, a) * envelope2(k), points) / (2 * mp.pi)


if __name__ == "__main__":
    for a in WIDTHS:
        print(f"    {a}: {mp.nstr(transmission(a), 30)},")
