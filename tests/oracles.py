"""Independent oracles that only the tests use."""

from math import isqrt


def is_prime_trial_division(v: int) -> bool:
    """Plain trial division; the independent oracle for is_prime."""
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    f = 3
    limit = isqrt(v)
    while f <= limit:
        if v % f == 0:
            return False
        f += 2
    return True


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth's TwoSum: a + b rounded, and its exact error, for any a and b."""
    z = a + b
    bb = z - a
    return z, (a - (z - bb)) + (b - bb)


def float_zps_twosum(poly, x_list, s, n0):
    """The float kernel's (Z, P, M) at each ascending limit, as (approx,
    comp) pairs, by the same-sign recurrence with three TwoSums and one f(n)
    call per n: p = -t * Q, u += t, M += p * u, Q += p from n0 on."""
    u, uc = (0.0 if n0 == 1 else -1.0), 0.0
    q, qc = 1.0, 0.0
    m, mc = 0.0, 0.0
    rows, last = [], 0
    for x in x_list:
        for n in range(last + 1, x + 1):
            t = 1.0 / poly(n) if s == 1 else float(poly(n)) ** -s
            if n < n0:
                u += t  # 1.0: f(n) = 1 before n0
                continue
            p = -t * (q + qc)
            u, e = two_sum(u, t)
            uc += e
            w = p * (u + uc)
            m, e = two_sum(m, w)
            mc += e
            q, e = two_sum(q, p)
            qc += e
        last = x
        zh, zl = two_sum(1.0, u)
        rows.append(((zh, zl + uc), (q, qc), (m, mc) if x >= n0 else (u, uc)))
    return rows
