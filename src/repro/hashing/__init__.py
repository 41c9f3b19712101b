"""Hash-function substrate: k-wise independent hashing, sign hashes, pairs.

The sketching literature (AGMS, Fast-AGMS, Count-Sketch, the paper's
LDPJoinSketch) needs two kinds of hash functions:

* *bucket* hashes ``h : D -> [m]`` (pairwise independence suffices for the
  variance bounds);
* *sign* hashes ``xi : D -> {-1, +1}`` drawn from a four-wise independent
  family (four-wise independence is what makes the inner-product variance
  bounds of Lemma 4 / Theorem 4 go through).

Both are built from polynomial hashing over the Mersenne prime ``2^31 - 1``
(:class:`KWiseHash`), and :class:`HashPairs` packages the ``k`` per-row
``(h_j, xi_j)`` pairs that a sketch and its clients must share.
"""

from .kwise import MERSENNE_PRIME_31, KWiseHash
from .sign import SignHash
from .pairs import HashPairs, attribute_pairs, stack_pair_coefficients

__all__ = [
    "MERSENNE_PRIME_31",
    "KWiseHash",
    "SignHash",
    "HashPairs",
    "attribute_pairs",
    "stack_pair_coefficients",
]
