"""TPC-C randomness: NURand, last names, strings, permutations.

Implements the spec's clause 2.1.6 non-uniform random function and clause
4.3.2 data generation rules, parameterised to the scaled-down populations
of :class:`~repro.tpcc.schema.ScaleConfig`.
"""

from __future__ import annotations

import random

#: Spec clause 4.3.2.3: the syllables composing C_LAST.
LAST_NAME_SYLLABLES = (
    "BAR",
    "OUGHT",
    "ABLE",
    "PRI",
    "PRES",
    "ESE",
    "ANTI",
    "CALLY",
    "ATION",
    "EING",
)


class _Alphabet:
    """Translation tables that turn raw random words into ``rng.choice`` picks.

    ``random.Random.choice(seq)`` draws ``k = len(seq).bit_length()`` bits
    per try — the top ``k`` bits of one 32-bit Mersenne Twister output —
    and rejects draws ``>= len(seq)``.  Those bits are the top of each
    output's high byte, so a bulk ``getrandbits(32 * m)`` (m outputs,
    first one lowest) yields m tries at once: ``table`` maps a high byte
    to its character, ``reject`` lists the high bytes of rejected tries.
    """

    def __init__(self, chars: str) -> None:
        n = len(chars)
        shift = 8 - n.bit_length()  # a try fits in the high byte: n < 256
        self.table = bytes(
            ord(chars[b >> shift]) if b >> shift < n else 0 for b in range(256)
        )
        self.reject = bytes(b for b in range(256) if b >> shift >= n)


_ALPHANUMERIC = _Alphabet("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
_DIGITS = _Alphabet("0123456789")


class TPCCRandom:
    """Seeded random source with the TPC-C helper distributions."""

    def __init__(self, seed: int = 0, c_last: int = 123, c_id: int = 259, ol_i_id: int = 7911) -> None:
        self.rng = random.Random(seed)
        # the spec's per-run constants C for each NURand usage
        self.c_last_const = c_last
        self.c_id_const = c_id
        self.ol_i_id_const = ol_i_id

    # ------------------------------------------------------------------
    # Primitive draws
    # ------------------------------------------------------------------
    def uniform(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]``."""
        return self.rng.randint(lo, hi)

    def decimal(self, lo: float, hi: float, digits: int = 2) -> float:
        """Uniform decimal in ``[lo, hi]`` rounded to ``digits``."""
        return round(self.rng.uniform(lo, hi), digits)

    def astring(self, lo: int, hi: int) -> str:
        """Random alphanumeric string of length uniform in ``[lo, hi]``."""
        return self._choices(_ALPHANUMERIC, self.uniform(lo, hi))

    def nstring(self, lo: int, hi: int) -> str:
        """Random numeric string of length uniform in ``[lo, hi]``."""
        return self._choices(_DIGITS, self.uniform(lo, hi))

    def _choices(self, alphabet: _Alphabet, length: int) -> str:
        """``length`` calls of ``rng.choice`` over the alphabet, drawn in bulk.

        Draws exactly the words the per-character calls would: each round
        draws one try per missing character, so the stream is never
        over-read and stays aligned for the draws that follow.
        """
        out = b""
        while len(out) < length:
            need = length - len(out)
            words = self.rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            out += words[3::4].translate(alphabet.table, alphabet.reject)
        return out.decode("ascii")

    def nurand(self, a: int, x: int, y: int, c: int) -> int:
        """Spec 2.1.6: ``(((rand(0,A) | rand(x,y)) + C) % (y - x + 1)) + x``."""
        return (((self.uniform(0, a) | self.uniform(x, y)) + c) % (y - x + 1)) + x

    # ------------------------------------------------------------------
    # Domain draws
    # ------------------------------------------------------------------
    def customer_id(self, customers_per_district: int) -> int:
        """NURand(1023, ...) customer id, scaled to the population."""
        return self.nurand(1023, 1, customers_per_district, self.c_id_const)

    def item_id(self, items: int) -> int:
        """NURand(8191, ...) item id, scaled to the population."""
        return self.nurand(8191, 1, items, self.ol_i_id_const)

    def last_name(self, number: int) -> str:
        """C_LAST from a three-syllable number (spec 4.3.2.3)."""
        return (
            LAST_NAME_SYLLABLES[(number // 100) % 10]
            + LAST_NAME_SYLLABLES[(number // 10) % 10]
            + LAST_NAME_SYLLABLES[number % 10]
        )

    def customer_last_name_load(self, customers_per_district: int) -> str:
        """Last name for the initial load (uniform over the name space)."""
        space = min(999, max(0, customers_per_district - 1))
        return self.last_name(self.uniform(0, space))

    def customer_last_name_run(self, customers_per_district: int) -> str:
        """Last name for run-time lookups (NURand-255 skew)."""
        space = min(999, max(0, customers_per_district - 1))
        return self.last_name(self.nurand(255, 0, space, self.c_last_const))

    def permutation(self, n: int) -> list[int]:
        """Random permutation of ``1..n`` (customer id assignment)."""
        values = list(range(1, n + 1))
        self.rng.shuffle(values)
        return values

    def zip_code(self) -> str:
        """Spec 4.3.2.7: 4 random digits + '11111'."""
        return self.nstring(4, 4) + "11111"

    def data_string(self, lo: int, hi: int, original_chance: float = 0.1) -> str:
        """i_data / s_data string; 10% contain 'ORIGINAL' (spec 4.3.3.1)."""
        s = self.astring(lo, hi)
        if self.rng.random() < original_chance and len(s) >= 8:
            pos = self.uniform(0, len(s) - 8)
            s = s[:pos] + "ORIGINAL" + s[pos + 8 :]
        return s
