"""Primality testing, prime search, and modular arithmetic helpers.

gmpy2 backs the hot paths when available (roughly 7x faster at benchmark key
sizes); pure-Python fallbacks keep the package importable without it.
All searches draw candidates from an injected seeded RNG, so key generation
is reproducible. `is_probable_prime` rejects any n sharing a factor with the
odd primes below 2000 by one gcd. Then, without gmpy2, it runs the
Baillie-PSW test (Baillie-Wagstaff, Math. Comp. 1980; Pomerance-Selfridge-
Wagstaff, 1980; FIPS 186-4 App. C.3): a strong base-2 test and a strong
Lucas test with Selfridge's parameters. No composite is known to pass it,
and it has no bases to choose, so a crafted input cannot be aimed at them
as at a fixed or n-derived list of Miller-Rabin bases. It costs about as
much as four Miller-Rabin rounds. With gmpy2 it is `gmpy2.is_prime(n, 25)`.

`sophie_germain_prime` runs a combined sieve (Wiener, ePrint 2003/186) over
windows of 2^16 candidates, striking each position where p' or 2p'+1 has an
odd prime factor below `_sieve_bound(bits)`. A survivor costs a base-2
Fermat test on p' and the Pocklington test on 2p'+1 (`is_prime_2q_plus_1`,
exact once p' is prime), then `is_probable_prime` on p'.

The bound never changes the output. A prime is struck only by itself, and
from 16 bits on every candidate exceeds both the bound and 20000, so the
sieve strikes only composites: the result, the first position in scan order
with p' and 2p'+1 both prime, is the one the plain 20000 sieve gave. At 15
bits the bound stays 20000, where a candidate may itself be a sieving prime
and is struck, as it always has been. Below 15 bits (below 16384) the 20000
sieve strikes every candidate, so those sizes draw candidates one at a time
(`_sophie_germain_small`) instead.

`random_prime_in_range`, the issuer's signature-exponent search, tests
independent random draws; at the paper profile about 55 of some 420 draws
per search pass trial division. While the helper process below is running,
they are tested in rounds of `_SEARCH_ROUND`: each gets a base-2 Fermat test,
half of them in the helper, and the first in draw order that passes and that
`is_probable_prime` confirms is taken. The RNG is then set back to its state
at the round's start and the draws up to that one are made again, so a
round keeps one saved state, not one per draw. Every prime passes the
Fermat test and a candidate that fails it is composite, so the strong
base-2 test would reject it too: the prime and every later draw are the
one-at-a-time search's. The search never starts the helper, so it stays
serial at the toy profile and under gmpy2.

`multi_powmod_many(products)` evaluates a list of products of powers, each
(terms, mod) or (terms, crt), a term being (base, exponent, fixed);
`multi_powmod`, `multi_powmod_crt` and `powmod_fixed` evaluate one. A
variable base goes through `powmod`. A fixed base is a public-key constant
(issuer S, Z and R_i, commitment bases, ElGamal g and h, the Paillier h_s):
without gmpy2 it keeps, per (base, modulus) value, a radix-2^5
Brickell-Gordon-McCurley-Wilson table of base^(2^(5i)), and all fixed terms
of one product share a single set of 31 buckets and one finish (Pippenger;
Moller, "Algorithms for multi-exponentiation", SAC 2001): one multiplication
per nonzero digit, plus about 62 per product. Tables are keyed by value, as
deserialized keys are fresh objects on every registry fetch; they grow to
the longest exponent asked for and live in an LRU of 64 tables. An exponent
longer than 4096 bits (past every honest one at the paper profile, the
longest being v_hat below 2^4080) goes to plain `powmod` and neither creates
nor grows a table, so an oversized response cannot inflate memory. A
negative exponent inverts its base, which raises ValueError for a non-unit.
With gmpy2 each product is a plain product of `powmod` calls.

Holders of a factored modulus use the Chinese remainder theorem
(Quisquater-Couvreur): (terms, ((m1, lam1), (m2, lam2))) is evaluated mod m1
and mod m2 as two jobs, joined by `crt_pair`, with ((p, p-1), (q, q-1)) for
an issuer modulus n = pq and ((p^2, p(p-1)), (q^2, q(q-1))) for a Paillier
n^2. Each exponent e >= lam becomes e mod lam + lam, in [lam, 2 lam). For a
unit x mod m_i, x^lam = 1, so the power is unchanged. A non-unit x is a
multiple of the prime p under m_i, and x^e = 0 (mod m_i) for every e >= 2
(e >= 1 for m_i = p); the reduced exponent is still at least lam >= 2, so
that power is unchanged too. So every value equals the plain computation mod
m1 m2, for any base.

Without gmpy2, a list with a modulus above 1024 bits uses a second core.
Its jobs are scheduled by Graham's LPT rule ("Bounds on multiprocessing
timing anomalies", 1969): costliest first, each to the process with less
estimated work so far. A job costs its estimated multiplications times
(|m|/1024)^1.8 for its modulus m, the growth of one multiplication from
1536 to 4096 bits, the widths a list mixes (CPython 3.11, 2-vCPU Xeon). A
list of one product is cut instead, its terms scheduled alike into one
sub-product per process.

A job is a product, or (None, n): a BPSW test of an n that trial division
left undecided, whose value is the verdict. `primality_many` checks a
cached key's primes with such jobs beside the Pocklington powers
((2, 2q, False),) mod 2q + 1, in one list. A BPSW test is costed as
`_BPSW_POWS` = 4 powers of n's size, 1.2 multiplications per bit each (it
measured 3.7-4.4 times `pow(2, n - 1, n)` at 1024 to 2048 bits). It is
never cut: a list of one BPSW test is evaluated here. The same modulus gate
holds, so an issuer key's 1536-bit primes are tested on both processes and
the 1024-bit Paillier primes here.

One helper process, forked on first use, gets its side as one
marshal-encoded request on a pipe and sends one reply, evaluated by the
same serial `_run` while this process evaluates its side. Forked, it starts
without importing anything (the program starts no threads). It is used
only when its share is at least `_PARALLEL_MIN_WORK`, about 40 pipe round
trips. So the toy profile, whose moduli are at most 1024 bits, never starts
it and evaluates each list as a plain loop, and neither does a process
whose CPU affinity holds one CPU.

A ValueError raised in the helper (no inverse) is raised again here, and
the helper's reply is read even when a job here raises, so the pipes never
go out of step. A helper that cannot answer (EOF, killed, an interrupted
wait, any other error, which is then raised here) is dropped and reaped, and
its jobs are evaluated here. The helper ignores SIGINT, takes SIGTERM's
default, and exits at EOF, which includes the death of this process. An exit
hook closes the pipes and reaps it, so a SIGTERM that ends this process
through `sys.exit` leaves no child. The values are those of the serial
evaluation, so every seeded output is unchanged. A tracer that wraps
`powmod` here does not see the powers the helper computes, nor one that
wraps `is_probable_prime` the tests of `primality_many`, and `RUSAGE_SELF`
does not count the helper's memory. Its requests carry proof and signature
products, CRT halves of the key holders' equations, the Fermat tests of the
exponent search and the prime checks of cached keys, all through
`_on_two_processes`.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import marshal
import math
import os
import random
import signal
from array import array
from collections import OrderedDict
from itertools import compress, islice
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from ..errors import PrimeGenerationError

_FIXED_WINDOW = 5
_FIXED_EXP_CAP = 4096
_FIXED_TABLES_MAX = 64
# (base, modulus) -> [base^(2^(_FIXED_WINDOW * i)) mod modulus for i = 0, 1, ...]
_FIXED_TABLES: OrderedDict[tuple[int, int], list[int]] = OrderedDict()

Term = tuple[int, int, bool]  # (base, exponent, base is a public-key constant)
Crt = tuple[tuple[int, int], tuple[int, int]]  # ((m1, lam1), (m2, lam2)), see multi_powmod_crt
Job = tuple[Iterable[Term] | None, int]  # (terms, modulus), or (None, n) for a BPSW test of n
Product = tuple[Iterable[Term], int | Crt]  # a Job, or (terms, the modulus's factors)


try:
    import gmpy2

    def powmod(base: int, exp: int, mod: int) -> int:
        return int(gmpy2.powmod(base, exp, mod))

except ImportError:  # pragma: no cover - exercised only without gmpy2
    gmpy2 = None

    def powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)


def _powmod_product(terms: Iterable[Term], mod: int) -> int:
    """`multi_powmod` as a plain product of `powmod` calls."""
    acc = 1 % mod
    for base, exp, _ in terms:
        acc = acc * powmod(base, exp, mod) % mod
    return acc


def _fixed_table(base: int, mod: int, bits: int) -> list[int]:
    """The cached table of base^(2^(5i)) mod `mod`, grown to cover `bits`."""
    key = (base, mod)
    table = _FIXED_TABLES.get(key)
    if table is None:
        table = _FIXED_TABLES[key] = [base % mod]
        if len(_FIXED_TABLES) > _FIXED_TABLES_MAX:
            _FIXED_TABLES.popitem(last=False)
    else:
        _FIXED_TABLES.move_to_end(key)
    while len(table) * _FIXED_WINDOW < bits:
        table.append(pow(table[-1], 1 << _FIXED_WINDOW, mod))
    return table


def _multi_powmod(terms: Iterable[Term], mod: int) -> int:
    """prod base^exp mod `mod` over (base, exp, fixed) terms: variable bases
    through `powmod`, fixed bases through one shared set of buckets."""
    mask = (1 << _FIXED_WINDOW) - 1
    acc, buckets = 1 % mod, None
    for base, exp, fixed in terms:
        if exp < 0:
            base, exp = invert(base, mod), -exp
        if not exp:
            continue
        if not fixed or exp.bit_length() > _FIXED_EXP_CAP or mod < 2:
            acc = acc * powmod(base, exp, mod) % mod
            continue
        table = _fixed_table(base, mod, exp.bit_length())
        if buckets is None:
            buckets = [1] * (mask + 1)
        # bucket[d] = product of the table entries whose exponent digit is d
        i = 0
        while exp:
            d = exp & mask
            if d:
                buckets[d] = buckets[d] * table[i] % mod
            exp >>= _FIXED_WINDOW
            i += 1
    if buckets is not None:
        # prod bucket[d]^d as a product of running products, top digit down
        run = 1
        for d in range(mask, 0, -1):
            if buckets[d] != 1:
                run = run * buckets[d] % mod
            if run != 1:
                acc = acc * run % mod
    return acc


def _job_cost(terms: Iterable[Term] | None, mod: int) -> float:
    """Estimated multiplications of a job in `_multi_powmod` (bits/5 per fixed
    term within the cap, else 1.2 bits), plus one, or of a BPSW test
    (`_BPSW_POWS` powers of the modulus's size), weighted to 1024 bits."""
    work = 1
    if terms is None:
        work += _BPSW_POWS * mod.bit_length() * 6 // 5
    else:
        for _, exp, fixed in terms:
            bits = int.bit_length(exp)
            work += bits // 5 if fixed and bits <= _FIXED_EXP_CAP else bits * 6 // 5
    return work * (mod.bit_length() / 1024) ** _WIDTH_EXPONENT


def _run(terms: Iterable[Term] | None, mod: int) -> int:
    """A job's value: the product, or for (None, n) `_bpsw(n)`."""
    return _bpsw(mod) if terms is None else _multi_powmod(terms, mod)


def _evaluated(jobs: list[Job]) -> list[int]:
    """The jobs' values, on both processes when a modulus is above
    `_PARALLEL_MIN_MOD` and `_scheduled` finds the helper worth its round trip."""
    if any(mod > _PARALLEL_MIN_MOD for _, mod in jobs) and (values := _scheduled(jobs)) is not None:
        return values
    return [_run(terms, mod) for terms, mod in jobs]


def multi_powmod_many(products: Sequence[Product]) -> list[int]:
    """The value of each product, (terms, mod) or (terms, crt), evaluated
    together: each CRT product as its two halves, and all the jobs on two
    processes when `_scheduled` finds the helper worth its round trip."""
    jobs: list[Job] = []
    for terms, mod in products:
        if mod.__class__ is int:
            jobs.append((terms, mod))
        else:
            (m1, lam1), (m2, lam2) = mod
            terms = tuple(terms)
            jobs += (_crt_half(terms, m1, lam1), m1), (_crt_half(terms, m2, lam2), m2)
    if gmpy2 is not None:
        values = [_powmod_product(terms, mod) for terms, mod in jobs]
    else:
        values = _evaluated(jobs)
    # a CRT product takes two values in turn; arguments are evaluated left to right
    it = iter(values)
    return [next(it) if mod.__class__ is int else crt_pair(next(it), mod[0][0], next(it), mod[1][0])
            for _, mod in products]


def multi_powmod(terms: Iterable[Term], mod: int) -> int:
    """prod base^exp mod `mod` over (base, exp, fixed) terms."""
    return multi_powmod_many(((terms, mod),))[0]


def multi_powmod_crt(terms: Iterable[Term], crt: Crt) -> int:
    """`multi_powmod(terms, m1 * m2)` for crt = ((m1, lam1), (m2, lam2))."""
    return multi_powmod_many(((terms, crt),))[0]


def powmod_fixed(base: int, exp: int, mod: int) -> int:
    """base^exp mod `mod` for a public-key constant base."""
    return multi_powmod_many(((((base, exp, True),), mod),))[0]


def _crt_half(terms: tuple[Term, ...], mod: int, lam: int) -> list[Term]:
    reduced = []
    for base, exp, fixed in terms:
        base %= mod
        if exp < 0:
            base, exp = invert(base, mod), -exp
        if exp >= lam:
            exp = exp % lam + lam
        reduced.append((base, exp, fixed))
    return reduced


def _scheduled(jobs: list[Job]) -> list[int] | None:
    """The jobs' values from both processes by the LPT rule, or None when the
    helper's share would not pay for its round trip. One product alone is
    cut: its terms are scheduled instead, into one sub-product per side. A
    prime test is never cut."""
    cut = len(jobs) == 1 and jobs[0][0] is not None
    items = ([((term,), jobs[0][1]) for term in jobs[0][0]] if cut
             else [(t if t is None else tuple(t), m) for t, m in jobs])
    costs = [_job_cost(*item) for item in items]
    sides, loads = ([], []), [0.0, 0.0]  # item indices and estimated work, here and in the helper
    for i in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        side = loads[1] < loads[0]
        sides[side].append(i)
        loads[side] += costs[i]
    if not sides[1] or min(loads) < _PARALLEL_MIN_WORK:
        return None
    mod = jobs[0][1]
    if cut:
        local, remote = ([([items[i][0][0] for i in side], mod)] for side in sides)
    else:
        local, remote = ([items[i] for i in side] for side in sides)
    both = _on_two_processes(local, remote)
    if both is None:
        return None
    if cut:
        return [both[0][0] * both[1][0] % mod]
    values = dict(zip(sides[0] + sides[1], both[0] + both[1]))
    return [values[i] for i in range(len(items))]


# ---------------------------------------------------------------------------
# the helper process: one lazily forked copy of this one, fed over two pipes

_PARALLEL_MIN_MOD = 1 << 1024  # only moduli above 1024 bits, so never at the toy profile
_PARALLEL_MIN_WORK = 256  # estimated 1024-bit multiplications the helper must get, about 40 round trips
_WIDTH_EXPONENT = 1.8  # a multiplication mod m costs (|m|/1024)^1.8 of one mod a 1024-bit modulus
_BPSW_POWS = 4  # a BPSW test of n costs about 4 powers mod n (3.7-4.4 measured at 1024-2048 bits)
_HELPER: tuple[int, BinaryIO, BinaryIO] | None = None  # (pid, request pipe, reply pipe) while one runs


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_pipes() -> tuple[BinaryIO, BinaryIO] | None:
    """The helper's request and reply pipes, forking it on first use; None
    when this process may use one CPU only or cannot fork."""
    global _HELPER
    if _HELPER is None:
        if not hasattr(os, "fork") or _usable_cpus() < 2:
            return None
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        request_r, request_w, reply_r, reply_w = fds
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(request_w)  # so that EOF comes when the parent closes its end or dies
                os.close(reply_r)
                _serve(os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        _HELPER = pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb")
    return _HELPER[1], _HELPER[2]


def _serve(requests: BinaryIO, replies: BinaryIO) -> None:
    """The helper's loop until EOF: reply to each list of jobs with their
    values, or (False, message) at the first ValueError. Any other exception
    ends the helper; the caller then evaluates the jobs and raises it."""
    while True:
        try:
            jobs = marshal.load(requests)
        except EOFError:
            return
        try:
            reply = [_run(terms, mod) for terms, mod in jobs]
        except ValueError as exc:  # no inverse
            reply = False, str(exc)
        replies.write(marshal.dumps(reply))
        replies.flush()


def _on_two_processes(local: list[Job], remote: list[Job]) -> tuple[list[int], list[int]] | None:
    """The values of the local jobs, evaluated here, and of the remote ones,
    by the helper meanwhile in one request and one reply; None when no helper
    can be had or the remote terms are not plain values. A helper that
    cannot answer is dropped and its jobs evaluated here."""
    pipes = _helper_pipes()
    if pipes is None:
        return None
    requests, replies = pipes
    try:
        request = marshal.dumps(remote)
    except ValueError:  # not ints: evaluated here, where it fails as it always has
        return None
    try:
        requests.write(request)
        requests.flush()
    except OSError:
        _stop_helper(kill=True)
        return None
    except BaseException:  # a request cut short leaves the pipe out of step
        _stop_helper(kill=True)
        raise
    try:
        mine = [_run(terms, mod) for terms, mod in local]
    except BaseException:
        _receive(replies)
        raise
    theirs = _receive(replies)
    if theirs is None:
        return mine, [_run(terms, mod) for terms, mod in remote]
    if theirs.__class__ is tuple:
        raise ValueError(theirs[1])
    return mine, theirs


def _receive(replies: BinaryIO) -> list[int] | tuple[bool, str] | None:
    """The helper's reply, or None after dropping a helper that cannot answer."""
    try:
        return marshal.load(replies)
    except (EOFError, ValueError, OSError):  # it died, perhaps mid-reply
        _stop_helper(kill=True)
        return None
    except BaseException:  # an interrupted wait leaves the pipe out of step
        _stop_helper(kill=True)
        raise


def _close_pipes() -> int | None:
    """Forget the helper and close this process's ends of its pipes; its pid."""
    global _HELPER
    if _HELPER is None:
        return None
    pid, *pipes = _HELPER
    _HELPER = None
    for pipe in pipes:
        with contextlib.suppress(OSError):  # a request the dead helper never read
            pipe.close()
    return pid


def _stop_helper(kill: bool = False) -> None:
    """Close the pipes and reap the helper. Unless killed, it exits on EOF
    at once: every request is answered before the next is sent, so it is
    idle. This runs at exit, so a SIGTERM that ends the process through
    `sys.exit` leaves no helper behind."""
    pid = _close_pipes()
    if pid is not None:
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    # a forked child shares the parent's pipes, so it must not use its helper
    os.register_at_fork(after_in_child=_close_pipes)


def invert(a: int, mod: int) -> int:
    return pow(a, -1, mod)


def crt_pair(x_p: int, p: int, x_q: int, q: int) -> int:
    """The x in [0, p*q) with x = x_p (mod p) and x = x_q (mod q), for
    coprime p and q (Garner's form)."""
    return x_q + q * ((x_p - x_q) * invert(q, p) % p)


_TRIAL_BOUND = 2000  # is_probable_prime divides by the odd primes below it
_TRIAL_PRIMES = frozenset(p for p in range(3, _TRIAL_BOUND, 2)
                          if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def is_probable_prime(n: int) -> bool:
    verdict = _trial_verdict(n)
    if verdict is not None:
        return verdict
    if gmpy2 is not None:
        return bool(gmpy2.is_prime(n, 25))
    return _bpsw(n)


def _trial_verdict(n: int) -> bool | None:
    """Whether n is prime, when trial division by the primes below
    `_TRIAL_BOUND` decides it; else None, for an odd n >= 5."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return n in _TRIAL_PRIMES
    return None


def primality_many(numbers: Sequence[int], partners: Sequence[int] = ()) -> list[bool]:
    """[is_probable_prime(n) for n in numbers] + [is_prime_2q_plus_1(q) for q
    in partners], their exponentiations evaluated together.

    Without gmpy2, each number that trial division leaves undecided is a BPSW
    job, (None, n), and each partner 2q + 1 that 3 does not divide is a
    Pocklington job, ((2, 2q, False),) mod 2q + 1, all in one list for
    `_evaluated`: on both processes in one request when a modulus is above
    the gate. Trial division stays here, and gmpy2 tests each one here."""
    if gmpy2 is not None:
        return [is_probable_prime(n) for n in numbers] + [is_prime_2q_plus_1(q) for q in partners]
    verdicts = [_trial_verdict(n) for n in numbers] + [None if (2 * q + 1) % 3 else False for q in partners]
    jobs: list[Job] = [(None, n) for n in numbers]
    jobs += [(((2, 2 * q, False),), 2 * q + 1) for q in partners]
    pending = [i for i, verdict in enumerate(verdicts) if verdict is None]
    values = _evaluated([jobs[i] for i in pending])
    for i, value in zip(pending, values):
        verdicts[i] = bool(value) if i < len(numbers) else value == 1
    return verdicts


def _bpsw(n: int) -> bool:
    """Baillie-PSW for an odd n >= 5: a strong base-2 test, then a strong
    Lucas test. No composite is known to pass both."""
    return _strong_base2(n) and _strong_lucas(n)


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2 (one Miller-Rabin round) for an
    odd n >= 5."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    x = pow(2, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for an odd n >= 5 with Selfridge's
    method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4. A perfect square has no such D, so it is rejected
    before the search.

    With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0
    (mod n) for some 0 <= r < s. A Lucas chain carries (V_k, V_(k+1), Q^k)
    over the bits of d; U_d = 0 exactly when 2 V_(d+1) = P V_d, since
    D U_k = 2 V_(k+1) - P V_k and D is prime to n."""
    if math.isqrt(n) ** 2 == n:
        return False
    disc = 5
    while (j := jacobi(disc, n)) != -1:
        if j == 0 and disc % n:
            return False  # D has a factor in common with n, below n
        disc = -disc - 2 if disc > 0 else 2 - disc
    q = (1 - disc) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # V_0 = 2, V_1 = P = 1, Q^0 = 1; a bit b of d takes k to 2k + b
    v, v1, qk = 2, 1, 1
    for bit in bin(d)[2:]:
        if bit == "1":
            v, v1 = (v * v1 - qk) % n, (v1 * v1 - 2 * qk * q) % n
            qk = qk * qk * q % n
        else:
            v, v1 = (v * v - 2 * qk) % n, (v * v1 - qk) % n
            qk = qk * qk % n
    if v == 0 or (2 * v1 - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def random_prime(bits: int, rng: random.Random, max_tries: int = 100000) -> int:
    """Random prime of exactly `bits` bits."""
    if bits < 2:
        raise PrimeGenerationError("prime size must be at least 2 bits")
    for _ in range(max_tries):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand
    raise PrimeGenerationError(f"no {bits}-bit prime found in {max_tries} draws")


_SEARCH_ROUND = 8  # trial-division survivors Fermat-tested per round, about half of them by the helper


def random_prime_in_range(lo: int, hi: int, rng: random.Random, max_tries: int = 100000) -> int:
    """Random prime in [lo, hi): the first draw, in draw order, that
    `is_probable_prime` accepts, in at most `max_tries` draws.

    While the helper runs (never under gmpy2) and lo is above every trial
    prime, the draws that pass trial division are tested in rounds on both
    processes (`_search_round`). The prime and the RNG state it leaves are
    the ones the one-at-a-time search gives: the RNG is set back to its state
    after the round's first draw, and the draws up to the prime's are made
    again."""
    draws = _draws(lo, hi, rng, max_tries)
    rounds = gmpy2 is None and lo >= _TRIAL_BOUND
    for cand in draws:
        if not (rounds and _HELPER is not None):
            if is_probable_prime(cand):
                return cand
        elif math.gcd(cand, _TRIAL_PRODUCT) == 1:
            state = rng.getstate()
            found = _search_round(cand, draws)
            if found is not None:
                rng.setstate(state)
                for _ in islice(_draws(lo, hi, rng, max_tries), found[1]):
                    pass
                return found[0]
    raise PrimeGenerationError(f"no prime found in [{lo}, {hi}) after {max_tries} draws")


def _draws(lo: int, hi: int, rng: random.Random, max_tries: int) -> Iterator[int]:
    """The odd candidates below hi of `max_tries` draws from [lo, hi), each
    yielded right after its draw."""
    for _ in range(max_tries):
        cand = rng.randrange(lo, hi) | 1
        if cand < hi:
            yield cand


def _search_round(first: int, draws: Iterator[int]) -> tuple[int, int] | None:
    """`first` and the next draws that pass trial division, up to
    `_SEARCH_ROUND`, each base-2 Fermat tested, on both processes when
    `_scheduled` finds the helper worth its round trip: the first of them in
    draw order that `is_probable_prime` confirms, with the number of
    candidates drawn after `first` up to it, or None.

    A prime passes the Fermat test, and a candidate that fails it is
    composite, so the strong base-2 test in `is_probable_prime` rejects it
    too: the confirmed candidate is the serial search's prime."""
    found, drawn = [(first, 0)], 0
    while len(found) < _SEARCH_ROUND and (cand := next(draws, None)) is not None:
        drawn += 1
        if math.gcd(cand, _TRIAL_PRODUCT) == 1:
            found.append((cand, drawn))
    jobs = [(((2, cand - 1, False),), cand) for cand, _ in found]
    values = _scheduled(jobs) or [_multi_powmod(terms, mod) for terms, mod in jobs]
    for (cand, skip), value in zip(found, values):
        if value == 1 and is_probable_prime(cand):
            return cand, skip
    return None


_WINDOW = 1 << 16  # candidate positions per sieved window
_SMALL_SIEVE_BOUND = 20000  # below 16 bits, where a candidate may be a sieving prime
_SIEVE_BOUND_MAX = 1 << 23
_GROUP = 8  # primes past 4 windows reduce the base by the product of 8 at a time


class _SieveTable(NamedTuple):
    small: array  # odd primes below min(bound, 4 * _WINDOW)
    inv2: array  # 1/2 mod each small prime
    inv4: array  # 1/4 mod each small prime
    large: array  # the primes from 4 * _WINDOW up to the bound
    products: list[int]  # product of each run of _GROUP large primes


_SIEVE_TABLES: dict[int, _SieveTable] = {}


def _sieve_bound(bits: int) -> int:
    """Sieving primes run below this bound in a `bits`-bit search: 20000
    below 16 bits; then bits^2 / 4 through 256 bits, where a window's first
    Sophie Germain prime comes early and a small sieve pays, and 4 * bits^2
    above, where most of the window is scanned; rounded down to a power of
    two and at most 2^23 (2^10 at 64 bits, 2^13 at 255, 2^20 at 512, 2^23 at
    1536). From 16 bits on every candidate is above both 20000 and the bound."""
    if bits < 16:
        return _SMALL_SIEVE_BOUND
    target = bits * bits // 4 if bits <= 256 else 4 * bits * bits
    return min(_SIEVE_BOUND_MAX, 1 << (target.bit_length() - 1))


def _sieve_table(bound: int) -> _SieveTable:
    table = _SIEVE_TABLES.get(bound)
    if table is None:
        flags = bytearray([1]) * bound
        flags[:3] = b"\x00\x00\x00"  # 0, 1 and the even prime 2
        for i in range(3, math.isqrt(bound - 1) + 1, 2):
            if flags[i]:
                flags[i * i :: 2 * i] = bytes(len(range(i * i, bound, 2 * i)))
        primes = array("I", compress(range(1, bound, 2), flags[1::2]))
        split = bisect.bisect_left(primes, 4 * _WINDOW)
        small, large = primes[:split], primes[split:]
        inv2 = array("I", [(sp + 1) // 2 for sp in small])
        inv4 = array("I", [h * h % sp for sp, h in zip(small, inv2)])
        products = [math.prod(large[i : i + _GROUP]) for i in range(0, len(large), _GROUP)]
        table = _SIEVE_TABLES[bound] = _SieveTable(small, inv2, inv4, large, products)
    return table


def is_prime_2q_plus_1(q: int) -> bool:
    """For a prime q, whether N = 2q + 1 is prime, at the cost of one
    exponentiation.

    Pocklington's criterion with N - 1 = 2q: if a^(N-1) = 1 (mod N) and
    gcd(a^2 - 1, N) = 1, every prime factor of N is 1 mod q, so at least
    q + 1 > sqrt(N), and N is prime. With a = 2 the gcd is gcd(3, N). A prime
    N > 3 passes for a = 2, so the answer is exact, not probable.
    """
    n = 2 * q + 1
    return n % 3 != 0 and powmod(2, n - 1, n) == 1


def _sieve_window(base: int, table: _SieveTable) -> bytearray:
    """ok[k] = 0 where base + 2k or 2(base + 2k) + 1, for k below _WINDOW,
    has a factor among the table's primes."""
    window = _WINDOW
    ok = bytearray([1]) * window
    for sp, h2, h4 in zip(table.small, table.inv2, table.inv4):
        r = (sp - base % sp) * h2 % sp  # base + 2r == 0 (mod sp)
        ok[r::sp] = bytes(len(range(r, window, sp)))
        r = (r - h4) % sp  # 2(base + 2r) + 1 == 0 (mod sp)
        ok[r::sp] = bytes(len(range(r, window, sp)))
    # A prime sp > 4 * window strikes at most one k per condition: 2k is
    # -base mod sp, and 4k is -(2 base + 1) mod sp. One reduction of the base
    # by a group's product serves all the primes of the group.
    large, span2, span4 = table.large, 2 * window, 4 * window
    for i, product in enumerate(table.products):
        neg = product - base % product  # = -base mod each prime of the group
        neg2 = 2 * neg - 1  # = -(2 base + 1) mod each prime of the group
        for sp in large[i * _GROUP : (i + 1) * _GROUP]:
            c = neg % sp
            if c < span2 and not c & 1:
                ok[c >> 1] = 0
            c = neg2 % sp
            if c < span4 and not c & 3:
                ok[c >> 2] = 0
    return ok


def sophie_germain_prime(bits: int, rng: random.Random, max_windows: int = 64) -> int:
    """Random prime p' of exactly `bits` bits with 2p'+1 also prime.

    Windows of 2^16 odd candidates p' = base + 2k above a random base are
    sieved (see the module docstring) and scanned in order of k. A survivor
    takes a base-2 Fermat test on p', `is_prime_2q_plus_1` on 2p'+1 and
    `is_probable_prime` on p', so a prime p' whose partner is composite
    costs two exponentiations. Raises PrimeGenerationError if the window
    budget is exhausted, which signals a misconfigured profile or RNG.
    """
    if bits < 15:
        return _sophie_germain_small(bits, rng)
    table = _sieve_table(_sieve_bound(bits))
    for _ in range(max_windows):
        base = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        ok = _sieve_window(base, table)
        k = ok.find(1)
        while k >= 0:
            cand = base + 2 * k
            if cand.bit_length() != bits:
                break
            if (powmod(2, cand - 1, cand) == 1 and is_prime_2q_plus_1(cand)
                    and is_probable_prime(cand)):
                return cand
            k = ok.find(1, k + 1)
    raise PrimeGenerationError(f"no {bits}-bit Sophie Germain prime within {max_windows} windows")


def _sophie_germain_small(bits: int, rng: random.Random, max_tries: int = 200000) -> int:
    for _ in range(max_tries):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand) and is_probable_prime(2 * cand + 1):
            return cand
    raise PrimeGenerationError(f"no {bits}-bit Sophie Germain prime in {max_tries} draws")


def safe_prime(bits: int, rng: random.Random) -> tuple[int, int]:
    """(P, Q) with P = 2Q + 1, both prime, P of exactly `bits` bits."""
    q = sophie_germain_prime(bits - 1, rng)
    return 2 * q + 1, q
