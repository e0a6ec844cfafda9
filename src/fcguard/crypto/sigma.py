"""The Sigma-protocol engine behind the credential request, the issuer's
signature-correctness proof and the presentation bundle. A relation is a
conjunction of equations target = prod base^witness (mod m), Camenisch-Stadler
style: Maurer's group-homomorphism preimage proof. The prover evaluates the
terms at its blindings; the verifier at the responses times target^-c, which
gives the same t-values for an honest proof. Either way a proof's t-values
are one batched `primes.multi_powmod_many`, shared by two processes, each
equation over a modulus whose factors the caller holds mod the primes.

The engine tests no types. Each verifier first passes the wire object it was
handed to `serialize.conforms`, the one shape rule, and `well_formed` is left
with the challenge's range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .primes import Crt, Product, Term, multi_powmod_many
from .transcript import Transcript


@dataclass(frozen=True)
class Eq:
    """One equation target = prod base^witness (mod `mod`). `terms` are
    (base, witness name, fixed) triples; `target` gives the target as
    (base, k, fixed) triples, target = prod base^k. The t-value
    target^-c * prod base^witness is one product, a base named on both sides
    taking one exponent. The target is stated only when the challenge is
    nonzero, so the prover never pays for it; a product only the prover
    evaluates states none. For a Paillier equation, `paillier_n` is N and the
    factor (1+N)^m, m the witness "m", is 1 + (m mod N) N (mod N^2)."""

    mod: int
    terms: tuple[tuple[int, str, bool], ...]
    target: Callable[[], Iterable[Term]] = tuple
    paillier_n: int = 0

    def product(self, exps: Mapping[str, int], c: int, factored: Mapping[int, Crt]) -> Product:
        """The t-value's product for `multi_powmod_many`, mod each prime for a
        holder of `mod`'s factors, whose moduli `factored` maps to them."""
        powers: dict[tuple[int, bool], int] = {}
        for base, name, fixed in self.terms:
            powers[base, fixed] = powers.get((base, fixed), 0) + exps[name]
        if c:
            for base, k, fixed in self.target():
                powers[base, fixed] = powers.get((base, fixed), 0) - k * c
        return [(base, exp, fixed) for (base, fixed), exp in powers.items()], factored.get(self.mod, self.mod)

    def finish(self, value: int, exps: Mapping[str, int]) -> int:
        """The t-value from its product's value."""
        if self.paillier_n:
            return (1 + exps["m"] % self.paillier_n * self.paillier_n) * value % self.mod
        return value


def evaluate(eqs: Sequence[tuple[Eq, Mapping[str, int]]], c: int, factored: Mapping[int, Crt]) -> list[int]:
    """The t-value of each (equation, exponents) pair at challenge c, from one
    `multi_powmod_many`."""
    values = multi_powmod_many([eq.product(exps, c, factored) for eq, exps in eqs])
    return [eq.finish(value, exps) for (eq, exps), value in zip(eqs, values)]


def well_formed(c: int, bits: int) -> bool:
    """True iff c lies in [0, 2^bits), as `challenge` gives. The types of c
    and of every response are `serialize.conforms`'s decision, made on the
    whole wire object before any verifier reads it."""
    return 0 <= c < 1 << bits


def challenge(label: str, nonce: bytes, values: Iterable[Any], bits: int) -> int:
    """The Fiat-Shamir challenge under `label`: the nonce, then each value."""
    t = Transcript(label)
    t.absorb_bytes(nonce)
    for x in values:
        t.absorb(x)
    return t.challenge(bits)

