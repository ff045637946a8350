"""The one primality test.  It imports only the standard library, so the
tree subcommands load it without the split filter of ``splitting``."""

from functools import lru_cache

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _MR_WITNESSES
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    Exact for n < psi_13 = _MR_LIMIT (about 3.3e24); n >= psi_13 raises
    ValueError rather than risk a pseudoprime.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, "
                         f"got a {n.bit_length()}-bit number")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def cached_is_prime(n: int) -> bool:
    """is_prime(n), remembered, so a prime proved by factoring is not tested again."""
    return is_prime(n)


@lru_cache(maxsize=None)  # a failed check raises, so only primes are cached
def check_prime(p: int) -> None:
    """The one prime precondition: ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
