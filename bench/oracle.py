"""High-precision reference for psi'(0) of geometric_B:1.5 with g = big_omega.

    psi'(0) = B (-digamma(B) + sum_p [log(1 - 1/p) + 1/(p - B)]),  B = 1.5.

Primes p < 200 are summed directly.  For the rest, expanding both terms
in powers of 1/p gives sum_{k>=2} (B^(k-1) - 1/k) P_{>=200}(k), where
P_{>=200}(k) is the prime zeta function mpmath.primezeta(k) minus the
primes below 200.  Prints 2.48470013326603764695...; checks.py holds the
value as PSI_PRIME_B15.  Needs mpmath (a test dependency):

    python3 bench/oracle.py
"""

import mpmath as mp


def psi_prime_at_zero(B, split=200):
    small = [p for p in range(2, split) if all(p % d for d in range(2, int(p**0.5) + 1))]
    head = mp.fsum(mp.log(1 - mp.mpf(1) / p) + 1 / (p - B) for p in small)

    def tail_term(k):
        return (B ** (k - 1) - 1 / k) * (mp.primezeta(k) - mp.fsum(mp.mpf(p) ** (-k) for p in small))

    return B * (-mp.digamma(B) + head + mp.nsum(tail_term, [2, mp.inf]))


if __name__ == "__main__":
    mp.mp.dps = 30
    print(psi_prime_at_zero(mp.mpf(3) / 2))
