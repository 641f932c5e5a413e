"""Network congestion games (the substrate of Sect. 6).

A communication network is ``N = (V, E, (d_e))`` where each arc ``e``
carries a non-decreasing delay function ``d_e`` of its total load.  Agents
route a load ``w_i`` along a path from their source to their sink; the
delay an agent experiences is the sum of arc delays at the arcs' total
loads; the inventor's objective is the total congestion
``Λ(π) = Σ_e d_e(W_e(π))``.

This module provides the *strategic (off-line) view*: the network, delay
functions, and a finite :class:`NetworkCongestionGame` whose strategies
are simple paths.  The on-line engine (irrevocable arrivals, Fig. 6, the
inventor's statistics) builds on these types in :mod:`repro.online`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import GameError
from repro.fractions_util import to_fraction
from repro.games.base import Game, UtilityTableMixin
from repro.games.profiles import PureProfile

# ----------------------------------------------------------------------
# Delay functions
# ----------------------------------------------------------------------


class DelayFunction(abc.ABC):
    """A non-decreasing delay function ``d_e : load -> delay``."""

    @abc.abstractmethod
    def __call__(self, load) -> Fraction:
        """Exact delay at total load ``load`` (load may be int or Fraction)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable form, e.g. ``x -> 2x + 1``."""


@dataclass(frozen=True)
class LinearDelay(DelayFunction):
    """``d(x) = slope * x`` with ``slope >= 0``.  Fig. 6 uses slope 1."""

    slope: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "slope", to_fraction(self.slope))
        if self.slope < 0:
            raise GameError("a delay slope must be non-negative")

    def __call__(self, load) -> Fraction:
        return self.slope * to_fraction(load)

    def describe(self) -> str:
        return f"x -> {self.slope}*x"


@dataclass(frozen=True)
class AffineDelay(DelayFunction):
    """``d(x) = slope * x + intercept`` with non-negative coefficients."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", to_fraction(self.slope))
        object.__setattr__(self, "intercept", to_fraction(self.intercept))
        if self.slope < 0 or self.intercept < 0:
            raise GameError("affine delay coefficients must be non-negative")

    def __call__(self, load) -> Fraction:
        return self.slope * to_fraction(load) + self.intercept

    def describe(self) -> str:
        return f"x -> {self.slope}*x + {self.intercept}"


@dataclass(frozen=True)
class PolynomialDelay(DelayFunction):
    """``d(x) = sum_k coeffs[k] * x^k`` with non-negative coefficients.

    Non-negative coefficients guarantee monotonicity on loads >= 0, which
    is the paper's standing assumption on ``d_e``.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(to_fraction(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if any(c < 0 for c in coeffs):
            raise GameError("polynomial delay coefficients must be non-negative")

    def __call__(self, load) -> Fraction:
        x = to_fraction(load)
        total = Fraction(0)
        power = Fraction(1)
        for coeff in self.coeffs:
            total += coeff * power
            power *= x
        return total

    def describe(self) -> str:
        terms = " + ".join(f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0)
        return f"x -> {terms or '0'}"


# ----------------------------------------------------------------------
# Networks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """A directed arc with an integer identity (parallel arcs allowed)."""

    arc_id: int
    source: str
    target: str
    delay: DelayFunction


class Network:
    """A directed network with delay functions on arcs.

    Arcs have stable integer ids so that configurations, statistics and
    proofs can reference them unambiguously even with parallel arcs
    (needed both by Fig. 6 and by the parallel-links model, which is a
    two-node network with m parallel arcs).
    """

    def __init__(self, name: str = ""):
        # Node -> its outgoing (arc id, target) pairs, nodes in insertion order.
        self._out_arcs: dict[str, list[tuple[int, str]]] = {}
        self._arcs: list[Arc] = []
        self.name = name or "Network"

    @property
    def num_arcs(self) -> int:
        return len(self._arcs)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(self._arcs)

    def nodes(self) -> tuple[str, ...]:
        return tuple(self._out_arcs)

    def add_node(self, node: str) -> None:
        self._out_arcs.setdefault(node, [])

    def add_arc(self, source: str, target: str, delay: DelayFunction | None = None) -> int:
        """Add an arc and return its id.  Default delay is ``d(x) = x``."""
        if delay is None:
            delay = LinearDelay(Fraction(1))
        arc_id = len(self._arcs)
        arc = Arc(arc_id=arc_id, source=source, target=target, delay=delay)
        self._arcs.append(arc)
        self._out_arcs.setdefault(source, []).append((arc_id, target))
        self._out_arcs.setdefault(target, [])
        return arc_id

    def arc(self, arc_id: int) -> Arc:
        try:
            return self._arcs[arc_id]
        except IndexError:
            raise GameError(f"arc {arc_id} does not exist") from None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def simple_arc_paths(self, source: str, sink: str) -> tuple[tuple[int, ...], ...]:
        """All simple paths from source to sink, as tuples of arc ids.

        Deterministically ordered (by length, then lexicographically by
        arc ids) so strategy indices are stable across runs — strategy
        enumeration order is part of any proof that refers to strategies
        by index.  A simple path visits no node twice, so the one path
        from a node to itself is the empty one.
        """
        try:
            known = source in self._out_arcs and sink in self._out_arcs
        except TypeError:  # an unhashable endpoint names no node
            known = False
        if not known:
            raise GameError(f"unknown endpoint in ({source!r}, {sink!r})")
        if source == sink:
            return ((),)
        # Depth-first over arcs: one iterator of outgoing arcs per node
        # on the current path; an arc into the sink closes a path and is
        # never followed further.
        paths: list[tuple[int, ...]] = []
        prefix: list[int] = []
        on_path = {source}
        stack = [iter(self._out_arcs[source])]
        while stack:
            for arc_id, target in stack[-1]:
                if target == sink:
                    paths.append((*prefix, arc_id))
                elif target not in on_path:
                    on_path.add(target)
                    prefix.append(arc_id)
                    stack.append(iter(self._out_arcs[target]))
                    break
            else:
                stack.pop()
                if prefix:
                    on_path.discard(self._arcs[prefix.pop()].target)
        paths.sort(key=lambda p: (len(p), p))
        return tuple(paths)

    def path_delay(self, path: Sequence[int], loads: Mapping[int, object]) -> Fraction:
        """Total delay along ``path`` given per-arc total loads."""
        total = Fraction(0)
        for arc_id in path:
            arc = self.arc(arc_id)
            total += arc.delay(loads.get(arc_id, 0))
        return total

    def best_reply_path(
        self,
        source: str,
        sink: str,
        load,
        loads: Mapping[int, object],
    ) -> tuple[tuple[int, ...], Fraction]:
        """Shortest path for a new agent of ``load`` given current ``loads``.

        The arriving agent evaluates each arc at ``current + own load``
        (the delay it would experience after joining) and takes the
        minimum-delay simple path.  Ties break toward the deterministic
        path order of :meth:`simple_arc_paths`, which is the tie rule the
        Fig. 6 story relies on.
        """
        load = to_fraction(load)
        best_path: tuple[int, ...] | None = None
        best_delay: Fraction | None = None
        for path in self.simple_arc_paths(source, sink):
            delay = Fraction(0)
            for arc_id in path:
                arc = self.arc(arc_id)
                delay += arc.delay(to_fraction(loads.get(arc_id, 0)) + load)
            if best_delay is None or delay < best_delay:
                best_delay = delay
                best_path = path
        if best_path is None:
            raise GameError(f"no path from {source!r} to {sink!r}")
        return best_path, best_delay

    def validate_path(self, path: Sequence[int], source: str, sink: str) -> tuple[int, ...]:
        """Check that ``path`` is a connected arc path from source to sink."""
        path = tuple(path)
        if not path:
            raise GameError("empty path")
        current = source
        for arc_id in path:
            arc = self.arc(arc_id)
            if arc.source != current:
                raise GameError(
                    f"arc {arc_id} starts at {arc.source!r}, expected {current!r}"
                )
            current = arc.target
        if current != sink:
            raise GameError(f"path ends at {current!r}, expected {sink!r}")
        return path


def parallel_links_network(num_links: int) -> Network:
    """The two-node network with ``m`` identical parallel links, d(x) = x.

    This is the "Greedy Strategies for Parallel Links" substrate: a set
    [m] of parallel links from a source s to a sink t.
    """
    if num_links < 1:
        raise GameError("need at least one link")
    net = Network(name=f"ParallelLinks(m={num_links})")
    net.add_node("s")
    net.add_node("t")
    for _ in range(num_links):
        net.add_arc("s", "t", LinearDelay(Fraction(1)))
    return net


# ----------------------------------------------------------------------
# The strategic-form (off-line) congestion game
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommodityDemand:
    """One agent's routing demand: source, sink and load ``w_i``."""

    source: str
    sink: str
    load: Fraction

    def __post_init__(self):
        object.__setattr__(self, "load", to_fraction(self.load))
        if self.load < 0:
            raise GameError("loads must be non-negative")


class NetworkCongestionGame(Game, UtilityTableMixin):
    """The finite strategic-form view of a network congestion game.

    Player ``i``'s strategies are the simple paths for its demand, in the
    deterministic order of :meth:`Network.simple_arc_paths`; its utility
    is minus its experienced delay.  This is the "strategic (off-line)
    version of the game" that agents fall back to with probability 1 - p
    in Sect. 6.
    """

    def __init__(self, network: Network, demands: Sequence[CommodityDemand],
                 name: str = ""):
        if not demands:
            raise GameError("a congestion game needs at least one agent")
        self._network = network
        self._demands = tuple(demands)
        self._paths = tuple(
            network.simple_arc_paths(d.source, d.sink) for d in self._demands
        )
        for i, paths in enumerate(self._paths):
            if not paths:
                raise GameError(
                    f"agent {i} has no path from {self._demands[i].source!r} "
                    f"to {self._demands[i].sink!r}"
                )
        self._name = name or f"CongestionGame({network.name})"

    @property
    def network(self) -> Network:
        return self._network

    @property
    def demands(self) -> tuple[CommodityDemand, ...]:
        return self._demands

    @property
    def num_players(self) -> int:
        return len(self._demands)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(paths) for paths in self._paths)

    @property
    def name(self) -> str:
        return self._name

    def path_of(self, player: int, action: int) -> tuple[int, ...]:
        """The arc path selected by ``action`` for ``player``."""
        try:
            return self._paths[player][action]
        except IndexError:
            raise GameError(
                f"player {player} has no strategy {action}"
            ) from None

    def edge_loads(self, profile: PureProfile) -> dict[int, Fraction]:
        """Total load ``W_e`` on every arc under a pure profile."""
        profile = self.validate_profile(profile)
        loads: dict[int, Fraction] = {}
        for player, action in enumerate(profile):
            w = self._demands[player].load
            for arc_id in self.path_of(player, action):
                loads[arc_id] = loads.get(arc_id, Fraction(0)) + w
        return loads

    def agent_delay(self, player: int, profile: PureProfile) -> Fraction:
        """λ_i(π): the delay agent ``i`` experiences under ``profile``."""
        loads = self.edge_loads(profile)
        path = self.path_of(player, profile[player])
        return self._network.path_delay(path, loads)

    def total_congestion(self, profile: PureProfile) -> Fraction:
        """Λ(π) = Σ_e d_e(W_e(π)) — the inventor's objective in Sect. 6."""
        loads = self.edge_loads(profile)
        total = Fraction(0)
        for arc in self._network.arcs:
            total += arc.delay(loads.get(arc.arc_id, 0))
        return total

    def payoff(self, player: int, profile: PureProfile) -> Fraction:
        """Utility = minus experienced delay (agents minimize delay)."""
        return -self.agent_delay(player, profile)
