"""Piece-selection policies (Theorem 14 / Section VIII-A).

A policy decides which piece an uploader transfers to a contacted peer.  The
only restriction Theorem 14 places on a policy is the *usefulness constraint*:
if the uploader holds any piece the downloader needs, a needed piece must be
transferred.  The stability region is then the same as for random useful
selection.

Implemented policies:

* :class:`RandomUsefulSelection` — the paper's baseline: a uniformly random
  piece among those the downloader needs;
* :class:`RarestFirstSelection` — BitTorrent-style: the needed piece with the
  fewest copies in the current population (ties broken uniformly);
* :class:`MostCommonFirstSelection` — adversarial counterpart of rarest-first,
  used to show insensitivity from the other side;
* :class:`SequentialSelection` — the lowest-numbered needed piece (in-order
  streaming-style download);
* :class:`CallablePolicy` — wraps an arbitrary ``h(A, B, x)``-style function.

Two equivalent entry points exist on every policy:

* ``select_piece(downloader_pieces, uploader_pieces, view, rng)`` — the
  original :class:`~repro.core.types.PieceSet`-level interface, kept for the
  object simulator and for user-defined policies;
* ``select_piece_mask(downloader_mask, uploader_mask, view, rng)`` — the
  mask-level primitive used by the array kernel
  (:mod:`repro.swarm.kernel`).  Masks are plain Python ints with bit ``i-1``
  set iff piece ``i`` is held.

The built-in policies implement the mask primitive natively (pure integer bit
twiddling, no allocation) and route ``select_piece`` through it; the abstract
base class provides the opposite shim, so a legacy policy that only implements
``select_piece`` (e.g. :class:`CallablePolicy` or a user subclass) works on
both backends automatically.  Both paths consume the RNG identically, which is
what makes the two simulation backends trajectory-equivalent under a shared
seed.

.. warning:: **Perf cliff** — the legacy ``select_piece_mask`` shim on the
   abstract base class allocates two :class:`~repro.core.types.PieceSet`
   objects on *every* contact, which on the array kernel's hot path costs a
   large constant factor over the built-ins' allocation-free bit arithmetic.
   Policies that never override the mask primitive get a one-time
   ``DeprecationWarning`` pointing here; override ``select_piece_mask``
   directly for array-kernel speed.

Each policy receives a :class:`SwarmView` whose ``census`` attribute — a
:class:`CensusSource` — gives read-only access to the piece-frequency census
of the current population so that global policies (rarest first) can be
expressed.  The default :class:`OracleCensus` serves the exact global counts;
a :class:`~repro.swarm.gossip.GossipCensus` serves the contacting peer's
flow-updating *estimate* instead (see :mod:`repro.swarm.gossip`), and
well-behaved policies read counts only through ``view.census.count(k)`` so
they work under either.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.types import PieceSet


class CensusSource(abc.ABC):
    """How a policy sees the piece-frequency census of the swarm.

    ``count(k)`` is the (possibly estimated) number of peers currently
    holding piece ``k``; ``counts_array()`` is the full 0-indexed vector
    (entry ``k-1`` for piece ``k``); ``staleness()`` is how old the served
    information is in simulation time — exactly ``0.0`` for the oracle,
    the focused peer's time-since-last-update for a gossip estimate.
    Counts are exact ints under :class:`OracleCensus` and floats under
    :class:`~repro.swarm.gossip.GossipCensus`; policies should only
    compare/rank them, never assume integrality.
    """

    __slots__ = ()

    @abc.abstractmethod
    def count(self, piece: int) -> float:
        """Number of peers currently holding ``piece`` (possibly estimated)."""

    @abc.abstractmethod
    def counts_array(self) -> np.ndarray:
        """The full piece-frequency vector (float64, entry ``k-1`` = piece ``k``)."""

    @abc.abstractmethod
    def staleness(self) -> float:
        """Age of the served census in simulation time (0.0 = exact)."""


class OracleCensus(CensusSource):
    """The exact global census (the historical behaviour and the default).

    Wraps the simulator's live piece-count mapping — reads always reflect
    the population at the instant of the policy call, so staleness is
    identically ``0.0``.
    """

    __slots__ = ("_counts",)

    def __init__(self, piece_counts: Mapping[int, int]) -> None:
        self._counts = piece_counts

    def count(self, piece: int) -> int:
        return self._counts.get(piece, 0)

    def counts_array(self) -> np.ndarray:
        counts = self._counts
        return np.array(
            [counts.get(k, 0) for k in range(1, len(counts) + 1)], dtype=np.float64
        )

    def staleness(self) -> float:
        return 0.0


@dataclass
class SwarmView:
    """Read-only snapshot handed to piece-selection policies.

    Attributes
    ----------
    num_pieces:
        Number of pieces ``K``.
    census:
        The :class:`CensusSource` serving piece-frequency reads — the exact
        :class:`OracleCensus` by default, a
        :class:`~repro.swarm.gossip.GossipCensus` when the scenario runs a
        gossip census.  ``census.count(k)`` is the number of peers holding
        piece ``k`` as this census knows it.
    total_peers:
        Current population size.
    time:
        Current simulation time.
    class_counts:
        Per-class population sizes when the simulation runs a heterogeneous
        :class:`~repro.core.scenario.ScenarioSpec` (index ``c`` is the number
        of live class-``c`` peers); ``None`` in a homogeneous swarm.

    Notes
    -----
    Policies must treat the view as read-only and must not hold on to it
    beyond the duration of one ``select_piece`` call: for speed, both
    simulation backends reuse a single live view whose fields (including the
    census) are updated in place between events.  Under an oracle census the
    simulators wrap the count mapping in a read-only ``MappingProxyType``, so
    a policy that tries to mutate it raises ``TypeError``.
    """

    num_pieces: int
    census: CensusSource
    total_peers: int
    time: float
    class_counts: Optional[Tuple[int, ...]] = None

    def piece_count(self, piece: int) -> float:
        """Number of peers currently holding ``piece`` per the census."""
        return self.census.count(piece)


def _mask_bits(mask: int) -> List[int]:
    """1-based indices of the set bits of ``mask``, ascending."""
    bits = []
    piece = 1
    while mask:
        if mask & 1:
            bits.append(piece)
        mask >>= 1
        piece += 1
    return bits


def _nth_set_bit(mask: int, index: int) -> int:
    """1-based position of the ``index``-th (0-based) set bit of ``mask``."""
    while index:
        mask &= mask - 1
        index -= 1
    return (mask & -mask).bit_length()


#: One-per-process guard for the legacy ``select_piece_mask`` shim warning.
_MASK_SHIM_WARNED = False


class PieceSelectionPolicy(abc.ABC):
    """Interface for piece-selection policies.

    The ``rng`` handed to a policy is the simulator's blocked
    :class:`~repro.swarm.drawbuf.DrawBuffer`, which implements the slice of
    the ``numpy.random.Generator`` API the built-in policies use
    (``integers`` / ``random`` / ``uniform`` / ``choice``); custom policies
    must restrict themselves to those methods so that both simulation
    backends keep consuming the draw stream identically.
    """

    name = "abstract"

    #: True when the policy is guaranteed not to consume the RNG on a
    #: contact with no useful piece (it returns ``None`` before drawing).
    #: The array kernel's vectorized batch stage only engages for such
    #: policies; the conservative default keeps custom subclasses on the
    #: scalar path unless they opt in.
    rng_free_when_useless = False

    @abc.abstractmethod
    def select_piece(
        self,
        downloader_pieces: PieceSet,
        uploader_pieces: PieceSet,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Choose the piece to transfer, or None when no useful piece exists.

        Implementations must satisfy the usefulness constraint: whenever the
        uploader holds a piece the downloader needs, a needed piece is
        returned.
        """

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Mask-level variant of :meth:`select_piece`.

        The default implementation wraps the masks into
        :class:`~repro.core.types.PieceSet` objects and defers to
        :meth:`select_piece`, so legacy policies work on the array kernel
        unchanged — at the cost of two ``PieceSet`` allocations per contact
        (the perf cliff flagged in the module docstring), which is why the
        first use of this shim emits a one-time ``DeprecationWarning``.
        Built-in policies override this with allocation-free bit arithmetic;
        custom policies should do the same for speed.  Overrides must consume
        the RNG exactly as their ``select_piece`` counterpart does, otherwise
        the two backends lose trajectory equivalence.
        """
        global _MASK_SHIM_WARNED
        if not _MASK_SHIM_WARNED:
            _MASK_SHIM_WARNED = True
            warnings.warn(
                f"policy {type(self).__name__!r} does not override "
                "select_piece_mask; the legacy shim allocates two PieceSet "
                "objects per contact on the array kernel — override the mask "
                "primitive for speed (see the repro.swarm.policies module "
                "docstring)",
                DeprecationWarning,
                stacklevel=2,
            )
        return self.select_piece(
            PieceSet.from_mask(downloader_mask, view.num_pieces),
            PieceSet.from_mask(uploader_mask, view.num_pieces),
            view,
            rng,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _MaskNativePolicy(PieceSelectionPolicy):
    """Base for built-ins: ``select_piece`` routes through the mask primitive.

    Every built-in checks usefulness before touching the RNG, so the batch
    stage may skip them wholesale on useless contacts.
    """

    rng_free_when_useless = True

    def select_piece(
        self,
        downloader_pieces: PieceSet,
        uploader_pieces: PieceSet,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        return self.select_piece_mask(
            downloader_pieces.mask, uploader_pieces.mask, view, rng
        )


def _useful_pieces(downloader_pieces: PieceSet, uploader_pieces: PieceSet) -> List[int]:
    return list(downloader_pieces.useful_from(uploader_pieces))


class RandomUsefulSelection(_MaskNativePolicy):
    """Uniformly random useful piece (the paper's baseline policy)."""

    name = "random-useful"

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        return _nth_set_bit(useful, int(rng.integers(useful.bit_count())))


class RarestFirstSelection(_MaskNativePolicy):
    """Transfer the useful piece with the fewest copies in the population."""

    name = "rarest-first"

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        pieces = _mask_bits(useful)
        counts = [view.census.count(piece) for piece in pieces]
        rarest = min(counts)
        candidates = [piece for piece, count in zip(pieces, counts) if count == rarest]
        return int(candidates[rng.integers(len(candidates))])


class MostCommonFirstSelection(_MaskNativePolicy):
    """Transfer the useful piece with the *most* copies (worst-case diversity)."""

    name = "most-common-first"

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        pieces = _mask_bits(useful)
        counts = [view.census.count(piece) for piece in pieces]
        most = max(counts)
        candidates = [piece for piece, count in zip(pieces, counts) if count == most]
        return int(candidates[rng.integers(len(candidates))])


class SequentialSelection(_MaskNativePolicy):
    """Transfer the lowest-numbered useful piece (in-order download)."""

    name = "sequential"

    def select_piece_mask(
        self,
        downloader_mask: int,
        uploader_mask: int,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = uploader_mask & ~downloader_mask
        if not useful:
            return None
        return (useful & -useful).bit_length()


class CallablePolicy(PieceSelectionPolicy):
    """Adapt an arbitrary function into a policy.

    The function receives the downloader's pieces, the uploader's pieces, the
    swarm view and an RNG, and must return a needed piece (or raise).  A
    usefulness check wraps the result so that a buggy function cannot violate
    the Theorem-14 constraint silently.  Census-aware callables should read
    piece frequencies through ``view.census.count(k)``::

        def prefer_rare_evens(downloader, uploader, view, rng):
            useful = sorted(downloader.useful_from(uploader))
            evens = [k for k in useful if k % 2 == 0] or useful
            return min(evens, key=lambda k: view.census.count(k))

        policy = CallablePolicy(prefer_rare_evens, name="rare-evens")

    On the array kernel the inherited :meth:`select_piece_mask` shim converts
    the masks back into :class:`PieceSet` objects before calling the wrapped
    function, so existing callables keep working unmodified (with the shim's
    one-time ``DeprecationWarning`` and per-contact allocation cost).
    """

    #: The usefulness pre-check below returns before the wrapped function
    #: (and therefore the RNG) is ever reached on a useless contact.
    rng_free_when_useless = True

    def __init__(
        self,
        func: Callable[[PieceSet, PieceSet, SwarmView, np.random.Generator], int],
        name: str = "custom",
    ):
        self._func = func
        self.name = name

    def select_piece(
        self,
        downloader_pieces: PieceSet,
        uploader_pieces: PieceSet,
        view: SwarmView,
        rng: np.random.Generator,
    ) -> Optional[int]:
        useful = _useful_pieces(downloader_pieces, uploader_pieces)
        if not useful:
            return None
        piece = int(self._func(downloader_pieces, uploader_pieces, view, rng))
        if piece not in useful:
            raise ValueError(
                f"policy {self.name!r} selected piece {piece}, which is not useful "
                f"(useful pieces: {useful})"
            )
        return piece


_POLICY_REGISTRY: Dict[str, Callable[[], PieceSelectionPolicy]] = {
    "random-useful": RandomUsefulSelection,
    "rarest-first": RarestFirstSelection,
    "most-common-first": MostCommonFirstSelection,
    "sequential": SequentialSelection,
}


def make_policy(name: str) -> PieceSelectionPolicy:
    """Construct a registered policy by name."""
    try:
        factory = _POLICY_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown policy {name!r}; known policies: {sorted(_POLICY_REGISTRY)}"
        ) from exc
    return factory()


def registered_policies() -> List[str]:
    """Names of all built-in piece-selection policies."""
    return sorted(_POLICY_REGISTRY)


__all__ = [
    "CensusSource",
    "OracleCensus",
    "SwarmView",
    "PieceSelectionPolicy",
    "RandomUsefulSelection",
    "RarestFirstSelection",
    "MostCommonFirstSelection",
    "SequentialSelection",
    "CallablePolicy",
    "make_policy",
    "registered_policies",
]
