"""Finite matroids with fully materialized rank tables.

Subsets of the ground set are encoded as integer bitmasks over the fixed
ground ordering: bit ``i`` stands for ``ground[i]``. A rank table holds
the rank of every mask at that index, so viewed as the n-cube
``table.reshape((2,) * n)`` its axis ``n - 1 - b`` holds bit ``b``: minors
are slices of the cube, relabelings are transpositions, and subset
passes run along one axis at a time. Every operation is exact and backed
by exhaustive enumeration over all ``2**n`` subsets, which caps ground
sets at :data:`MAX_GROUND` elements. Subset-valued results are always
listed in ascending mask order so that repeated runs are byte-identical.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable

import numpy as np

from .errors import AxiomViolation, GroundSetTooLarge, NotACircuitHyperplane

MAX_GROUND = 24

_OPEN = object()  # marks where each basis starts when a basis family is read flat
_CHUNK = 1 << 16  # masks listed per step, to bound the listing's temporaries

# popcount tables per ground size, built once
_PC: dict[int, np.ndarray] = {}


def _popcounts(n: int) -> np.ndarray:
    table = _PC.get(n)
    if table is None:
        table = np.zeros(1, dtype=np.uint8)
        for _ in range(n):
            table = np.concatenate([table, table + 1])
        table.setflags(write=False)
        _PC[n] = table
    return table


def _with_zero_bits(k: int, *bits: int) -> int:
    """The mask that has 0 at ``bits`` (ascending) and reads ``k`` elsewhere."""
    for b in bits:
        k = (k >> b << (b + 1)) | (k & ((1 << b) - 1))
    return k


@dataclass(frozen=True)
class IngletonCheck:
    """Outcome of one Ingleton inequality evaluation."""

    lhs: int
    rhs: int
    holds: bool


class Matroid:
    """A matroid given by its ordered ground labels and full rank table."""

    __slots__ = ("ground", "table", "_index")

    def __init__(self, ground: Iterable[str], table: np.ndarray):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise ValueError("duplicate ground labels")
        if len(ground) > MAX_GROUND:
            raise GroundSetTooLarge(f"{len(ground)} elements exceeds cap {MAX_GROUND}")
        table = np.ascontiguousarray(table, dtype=np.uint8)
        if table.shape != (1 << len(ground),):
            raise ValueError("rank table has wrong length")
        table.setflags(write=False)
        self.ground = ground
        self.table = table
        self._index = {label: i for i, label in enumerate(ground)}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_independence(
        cls,
        ground: Iterable[str],
        indep: np.ndarray,
    ) -> "Matroid":
        """Build a matroid from its independence indicator over all masks.

        ``indep[mask]`` says whether the subset ``mask`` is independent; a
        subset's rank is the size of its largest independent subset. The
        rank axioms are checked, so a family that is not the independent
        sets of a matroid, downward closed or not, raises :class:`AxiomViolation`.
        """
        ground = tuple(ground)
        n = len(ground)
        if n > MAX_GROUND:
            raise GroundSetTooLarge(f"{n} elements exceeds cap {MAX_GROUND}")
        indep = np.asarray(indep, dtype=bool)
        if indep.shape != (1 << n,):
            raise ValueError("independence array has wrong length")
        if not indep[0]:
            raise AxiomViolation("oracle rejects the empty set")
        m = cls._from_independent_sets(ground, indep)
        m.verify_axioms()
        return m

    @classmethod
    def _from_independent_sets(cls, ground: tuple[str, ...], indep: np.ndarray) -> "Matroid":
        """The matroid with these independent sets, unchecked: rank(X) is the
        largest |S| over independent S within X, one subset-max pass per bit."""
        pc = _popcounts(len(ground))
        table = np.where(indep, pc, np.uint8(0)).astype(np.uint8)
        for b in range(len(ground)):
            halves = table.reshape(-1, 2, 1 << b)
            np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
        return cls(ground, table)

    @classmethod
    def from_independence_oracle(
        cls,
        ground: Iterable[str],
        oracle: Callable[[int], bool],
    ) -> "Matroid":
        """Materialize a matroid by querying ``oracle`` on every subset mask.

        The oracle is called once per mask, in ascending mask order, and
        its answers go to :meth:`from_independence`.
        """
        ground = tuple(ground)
        n = len(ground)
        if n > MAX_GROUND:
            raise GroundSetTooLarge(f"{n} elements exceeds cap {MAX_GROUND}")
        size = 1 << n
        indep = np.fromiter((bool(oracle(mask)) for mask in range(size)), bool, size)
        return cls.from_independence(ground, indep)

    @classmethod
    def from_bases(
        cls,
        ground: Iterable[str],
        bases: Iterable[Iterable[str]],
    ) -> "Matroid":
        """Rebuild a matroid from its basis family (certificate decoding)."""
        ground = tuple(ground)
        return cls._from_basis_masks(ground, cls._read_bases(ground, bases)[1])

    @staticmethod
    def _read_bases(
        ground: tuple[str, ...], bases: Iterable[Iterable[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read a basis family as ``(indices, masks)``.

        ``indices`` holds each label's bit index, with ``len(ground)``
        opening each basis; ``masks`` holds one mask per listed basis, in
        the order listed.
        """
        n = len(ground)
        if n > MAX_GROUND:
            raise GroundSetTooLarge(f"{n} elements exceeds cap {MAX_GROUND}")
        # each label is read as its bit index, and a marker opening each basis as n
        index = {label: i for i, label in enumerate(ground)}
        if len(index) != n:
            raise ValueError("duplicate ground labels")
        index[_OPEN] = n
        flat = chain.from_iterable(chain.from_iterable(zip(repeat((_OPEN,)), bases)))
        try:
            indices = np.frombuffer(bytes(map(index.__getitem__, flat)), np.uint8)
        except KeyError as exc:
            raise ValueError(
                f"basis label {reprlib.repr(exc.args[0])} not in ground set"
            ) from None
        starts = np.flatnonzero(indices == n)
        if not len(starts):
            raise ValueError("at least one basis is required")
        # a run is one basis: its marker, which adds no element, then its labels
        weights = np.array([1 << i for i in range(n)] + [0], dtype=np.uint32)
        return indices, np.bitwise_or.reduceat(weights[indices], starts)

    @classmethod
    def _from_basis_masks(cls, ground: tuple[str, ...], masks: np.ndarray) -> "Matroid":
        # the independent sets are the subsets of bases: one pass per bit
        indep = np.zeros(1 << len(ground), dtype=bool)
        indep[masks] = True
        for b in range(len(ground)):
            halves = indep.reshape(-1, 2, 1 << b)
            halves[:, 0] |= halves[:, 1]
        return cls.from_independence(ground, indep)

    # -- basic queries ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ground)

    @property
    def rank(self) -> int:
        return int(self.table[-1])

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            try:
                mask |= 1 << self._index[label]
            except KeyError:
                raise ValueError(f"label {reprlib.repr(label)} not in ground set") from None
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(g for i, g in enumerate(self.ground) if mask >> i & 1)

    def rank_of(self, labels: Iterable[str]) -> int:
        return int(self.table[self.mask_of(labels)])

    def is_independent(self, labels: Iterable[str]) -> bool:
        mask = self.mask_of(labels)
        return int(self.table[mask]) == mask.bit_count()

    def is_basis(self, labels: Iterable[str]) -> bool:
        mask = self.mask_of(labels)
        return mask.bit_count() == self.rank and int(self.table[mask]) == self.rank

    def is_loop(self, label: str) -> bool:
        return self.rank_of([label]) == 0

    def _basis_mask_array(self) -> np.ndarray:
        pc = _popcounts(self.size)
        return np.flatnonzero((pc == self.rank) & (self.table == self.rank))

    def basis_masks(self) -> list[int]:
        return self._basis_mask_array().tolist()

    def _basis_lists(self) -> list[list[str]]:
        """The label list of every basis, in ascending mask order."""
        k = self.rank
        if k == 0:
            return [[]]  # the empty set is the only basis
        masks = self._basis_mask_array()
        labels = np.array(self.ground, dtype=object)
        lists: list[list[str]] = []
        for start in range(0, len(masks), _CHUNK):
            chunk = masks[start : start + _CHUNK].astype("<u4")
            # column i of the little-endian bits is ground[i]; every basis has k of them
            members = np.unpackbits(
                chunk.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little"
            )
            lists += labels[np.nonzero(members)[1].reshape(-1, k)].tolist()
        return lists

    def bases(self) -> list[tuple[str, ...]]:
        return list(map(tuple, self._basis_lists()))

    # -- circuits ---------------------------------------------------------

    def _circuit_indicator(self) -> np.ndarray:
        pc = _popcounts(self.size)
        indep = self.table == pc
        # a set of rank |X| - 1 all of whose children X - b are independent
        circuit = self.table == pc - 1
        for b in range(self.size):
            halves = circuit.reshape(-1, 2, 1 << b)
            halves[:, 1] &= indep.reshape(-1, 2, 1 << b)[:, 0]
        return circuit

    def circuit_masks(self) -> list[int]:
        """Minimal dependent subsets, ascending mask order."""
        return np.nonzero(self._circuit_indicator())[0].tolist()

    def circuits(self) -> list[tuple[str, ...]]:
        return [self.labels_of(m) for m in self.circuit_masks()]

    def nonspanning_circuit_masks(self) -> list[int]:
        return np.nonzero(self._circuit_indicator() & (self.table < self.rank))[0].tolist()

    def nonspanning_circuits(self) -> list[tuple[str, ...]]:
        return [self.labels_of(m) for m in self.nonspanning_circuit_masks()]

    def is_freely_placed(self, label: str) -> bool:
        """True iff the element lies in no non-spanning circuit."""
        bit = 1 << self._index[label]
        return not any(m & bit for m in self.nonspanning_circuit_masks())

    # -- minors, dual, relaxation ------------------------------------------

    def _minor(self, deleted: int, contracted: int) -> "Matroid":
        """Delete the ``deleted`` mask and contract ``contracted``: each removed
        element's cube axis is fixed at 0 or 1, the kept axes stay in order."""
        n = self.size
        index = tuple(
            0 if deleted >> b & 1 else 1 if contracted >> b & 1 else slice(None)
            for b in reversed(range(n))
        )
        table = self.table.reshape((2,) * n)[index]
        if contracted:
            table = (table.astype(np.int16) - int(self.table[contracted])).astype(np.uint8)
        return Matroid(
            self.labels_of(((1 << n) - 1) & ~(deleted | contracted)), table.reshape(-1)
        )

    def delete(self, labels: Iterable[str]) -> "Matroid":
        return self._minor(self.mask_of(labels), 0)

    def contract(self, labels: Iterable[str]) -> "Matroid":
        return self._minor(0, self.mask_of(labels))

    def dual(self) -> "Matroid":
        pc = _popcounts(self.size).astype(np.int16)
        # full ^ mask == (2**n - 1) - mask, so the complement table is a reversal
        co = self.table[::-1].astype(np.int16)
        return Matroid(self.ground, (pc + co - self.rank).astype(np.uint8))

    def is_circuit_hyperplane(self, labels: Iterable[str]) -> bool:
        mask = self.mask_of(labels)
        k = mask.bit_count()
        rank = self.rank
        table = self.table
        if int(table[mask]) != k - 1 or int(table[mask]) != rank - 1:
            return False
        m = mask
        while m:  # every proper child independent, so the set is a circuit
            bit = m & -m
            if int(table[mask ^ bit]) != k - 1:
                return False
            m ^= bit
        full = (1 << self.size) - 1
        m = full ^ mask
        while m:  # adding any outside element reaches full rank, so a flat
            bit = m & -m
            if int(table[mask | bit]) != rank:
                return False
            m ^= bit
        return True

    def relax(self, labels: Iterable[str]) -> "Matroid":
        """Declare a circuit-hyperplane to be a basis.

        Only the relaxed set changes rank (by exactly one); all other
        subsets keep their rank, which the relaxation identities in the
        test suite re-check.
        """
        if not self.is_circuit_hyperplane(labels):
            raise NotACircuitHyperplane(f"{sorted(labels)} is not a circuit-hyperplane")
        mask = self.mask_of(labels)
        table = self.table.copy()
        table[mask] += 1
        return Matroid(self.ground, table)

    # -- comparisons -------------------------------------------------------

    def table_in(self, order: Iterable[str]) -> np.ndarray:
        """The rank table over masks of ``order``, a reordering of the ground set."""
        order = tuple(order)
        if order == self.ground:
            return self.table
        n = self.size
        if len(order) != n or set(order) != set(self.ground):
            raise ValueError("order is not a reordering of the ground set")
        # the result's axis n-1-b is order[b]; find that label's axis here
        axes = [n - 1 - self._index[g] for g in reversed(order)]
        return self.table.reshape((2,) * n).transpose(axes).ravel()

    def equals(self, other: "Matroid") -> bool:
        """Label-sensitive equality: same label set, same rank on every subset."""
        if set(self.ground) != set(other.ground):
            return False
        return bool(np.array_equal(self.table, other.table_in(self.ground)))

    def ingleton_check(
        self,
        a: Iterable[str],
        b: Iterable[str],
        c: Iterable[str],
        d: Iterable[str],
    ) -> IngletonCheck:
        t = self.table
        am, bm, cm, dm = (self.mask_of(x) for x in (a, b, c, d))
        lhs = int(t[am]) + int(t[bm]) + int(t[am | bm | cm]) + int(t[am | bm | dm]) + int(t[cm | dm])
        rhs = (
            int(t[am | bm])
            + int(t[am | cm])
            + int(t[am | dm])
            + int(t[bm | cm])
            + int(t[bm | dm])
        )
        return IngletonCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)

    # -- greedy helpers ----------------------------------------------------

    def greedy_max_independent(
        self,
        within: Iterable[str] | None = None,
        start: Iterable[str] = (),
    ) -> tuple[str, ...]:
        """Largest independent subset of ``within``, grown in ground order."""
        chosen = self.mask_of(start)
        if int(self.table[chosen]) != chosen.bit_count():
            raise ValueError("start set is dependent")
        allowed = (1 << self.size) - 1 if within is None else self.mask_of(within)
        table = self.table
        for i in range(self.size):
            bit = 1 << i
            if allowed & bit and not chosen & bit:
                cand = chosen | bit
                if int(table[cand]) == cand.bit_count():
                    chosen = cand
        return self.labels_of(chosen)

    def greedy_basis(self, containing: Iterable[str] = ()) -> tuple[str, ...]:
        basis = self.greedy_max_independent(start=containing)
        if len(basis) != self.rank:
            raise ValueError("greedy extension fell short of a basis")
        return basis

    # -- verification and serialization -------------------------------------

    def verify_axioms(self) -> None:
        """Check the rank axioms on the table.

        Three local conditions are checked, for every subset X and
        elements e, f outside it: normalization r(∅) = 0, unit increase
        r(X) <= r(X + e) <= r(X) + 1, and local submodularity
        r(X + e) + r(X + f) >= r(X + e + f) + r(X). Together they are
        equivalent to the rank axioms (Oxley, *Matroid Theory*, ch. 1):
        unit increase gives 0 <= r(X) <= |X| and monotonicity, and
        submodularity of any pair X, Y follows from the local form by
        adding the elements of Y - X one at a time. So no pair of
        subsets needs checking directly.

        Each condition is a first or second difference of the table viewed
        as an n-cube. The first failure is reported: unit increase before
        submodularity, then by element (pair), then by ascending mask.
        """
        n = self.size
        table = self.table
        if int(table[0]) != 0:
            raise AxiomViolation("rank of the empty set is not 0")
        if n == 0:
            return
        # ranks are at most 24, so int8 is exact
        cube = table.view(np.int8).reshape((2,) * n)
        for b in range(n):
            step = np.diff(cube, axis=n - 1 - b)
            bad = ((step < 0) | (step > 1)).ravel()
            if bad.any():
                x = _with_zero_bits(int(bad.argmax()), b)
                raise AxiomViolation(
                    f"unit increase fails at {self.labels_of(x)} + {self.ground[b]}"
                )
        for b in range(n):
            # recomputed, not kept from above: n steps would hold n * 2**(n-1) bytes
            step = np.diff(cube, axis=n - 1 - b)
            for f in range(b + 1, n):
                bad = (np.diff(step, axis=n - 1 - f) > 0).ravel()
                if bad.any():
                    x = _with_zero_bits(int(bad.argmax()), b, f)
                    raise AxiomViolation(
                        f"submodularity fails at {self.labels_of(x)} with "
                        f"{self.ground[b]}, {self.ground[f]}"
                    )

    def to_doc(self) -> dict:
        """Ground labels in order plus the basis family as sorted label lists."""
        return {
            "ground": list(self.ground),
            "bases": self._basis_lists(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matroid(rank {self.rank} on {self.size} elements)"
