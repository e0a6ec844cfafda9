"""Scheme-tagged ciphertext container. Randomness is consumed at encryption
time and never stored."""

from __future__ import annotations

from dataclasses import dataclass

from ..serialize import serializable


@serializable("ciphertext")
@dataclass(frozen=True)
class Ciphertext:
    scheme: str  # "elgamal" (components c1, c2) or "paillier" (single component)
    parts: tuple[int, ...]
