"""Process groups and Cartesian topologies.

Groups (``MPI_Group``) are immutable ordered rank sets supporting the
standard algebra (union, intersection, difference, incl/excl); a group
plus a parent communicator yields a new communicator via ``comm_create``
(collective over the *parent*, like MPI-2's).

:class:`CartTopology` provides the ``MPI_Cart_create`` family:
dimensions, periodicity, rank↔coordinate translation, and ``shift`` for
the halo-exchange partner computation every stencil code performs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import InvalidRankError, MPIError


class Group:
    """An immutable, ordered set of communicator-local ranks.

    Ranks refer to positions in the *parent communicator* the group was
    derived from; ``Communicator.group_of()`` creates the initial group.
    """

    __slots__ = ("_ranks",)

    def __init__(self, ranks: Iterable[int]):
        ranks = tuple(ranks)
        if len(set(ranks)) != len(ranks):
            raise MPIError(f"group contains duplicate ranks: {ranks}")
        if any(r < 0 for r in ranks):
            raise MPIError(f"group contains negative ranks: {ranks}")
        self._ranks = ranks

    @property
    def size(self) -> int:
        return len(self._ranks)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self._ranks

    def rank_of(self, parent_rank: int) -> Optional[int]:
        """Position of a parent rank within this group, or None."""
        try:
            return self._ranks.index(parent_rank)
        except ValueError:
            return None

    def __contains__(self, parent_rank: int) -> bool:
        return parent_rank in self._ranks

    # -- the MPI group algebra ------------------------------------------------

    def incl(self, ranks: Sequence[int]) -> "Group":
        """Subgroup of the listed positions, in the listed order."""
        try:
            return Group(self._ranks[i] for i in ranks)
        except IndexError:
            raise InvalidRankError(
                f"incl index out of range for group of size {self.size}"
            ) from None

    def excl(self, ranks: Sequence[int]) -> "Group":
        """Subgroup without the listed positions, original order kept."""
        drop = set(ranks)
        if any(not 0 <= i < self.size for i in drop):
            raise InvalidRankError(
                f"excl index out of range for group of size {self.size}"
            )
        return Group(r for i, r in enumerate(self._ranks) if i not in drop)

    def union(self, other: "Group") -> "Group":
        """Members of self, then members of other not in self (MPI order)."""
        extra = [r for r in other._ranks if r not in self._ranks]
        return Group(self._ranks + tuple(extra))

    def intersection(self, other: "Group") -> "Group":
        return Group(r for r in self._ranks if r in other._ranks)

    def difference(self, other: "Group") -> "Group":
        return Group(r for r in self._ranks if r not in other._ranks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"Group{self._ranks!r}"


def dims_create(nnodes: int, ndims: int) -> list[int]:
    """``MPI_Dims_create``: factor ``nnodes`` into ``ndims`` balanced,
    non-increasing dimensions."""
    if nnodes < 1 or ndims < 1:
        raise ValueError("nnodes and ndims must be positive")
    dims = [1] * ndims
    remaining = nnodes
    # repeatedly assign the largest prime factor to the smallest dimension
    factors = []
    n, f = remaining, 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return sorted(dims, reverse=True)


class CartTopology:
    """A Cartesian process topology over a communicator's ranks.

    Ranks are laid out in row-major order over ``dims``; ``periods[i]``
    makes dimension ``i`` wrap around.
    """

    __slots__ = ("dims", "periods")

    def __init__(self, dims: tuple[int, ...], periods: tuple[bool, ...]):
        if len(dims) != len(periods):
            raise ValueError("dims and periods must have equal length")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive: {dims}")
        self.dims = dims
        self.periods = periods

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """``MPI_Cart_coords``: row-major coordinates of a rank."""
        if not 0 <= rank < self.size:
            raise InvalidRankError(f"rank {rank} outside topology of {self.size}")
        out = []
        for d in reversed(self.dims):
            out.append(rank % d)
            rank //= d
        return tuple(reversed(out))

    def rank(self, coords: Sequence[int]) -> Optional[int]:
        """``MPI_Cart_rank``: rank at coordinates (honouring periodicity);
        None for out-of-range coordinates on non-periodic dimensions."""
        if len(coords) != self.ndims:
            raise ValueError(f"expected {self.ndims} coordinates")
        normal = []
        for c, d, per in zip(coords, self.dims, self.periods):
            if per:
                c %= d
            elif not 0 <= c < d:
                return None
            normal.append(c)
        r = 0
        for c, d in zip(normal, self.dims):
            r = r * d + c
        return r

    def shift(self, rank: int, dimension: int, displacement: int = 1):
        """``MPI_Cart_shift``: (source, dest) partners along a dimension.

        Either may be None at a non-periodic boundary (MPI_PROC_NULL's
        role)."""
        if not 0 <= dimension < self.ndims:
            raise ValueError(f"dimension {dimension} out of range")
        me = list(self.coords(rank))
        up = list(me)
        up[dimension] += displacement
        down = list(me)
        down[dimension] -= displacement
        return self.rank(down), self.rank(up)

    def neighbors(self, rank: int) -> list[int]:
        """All distinct ±1 partners over every dimension (halo partners)."""
        out = []
        for dim in range(self.ndims):
            src, dst = self.shift(rank, dim)
            for peer in (src, dst):
                if peer is not None and peer != rank and peer not in out:
                    out.append(peer)
        return out
