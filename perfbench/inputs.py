"""Seeded inputs: the same ``--seed`` always gives the same games and
arrival times, and the program under test receives only these.

mixed_open's game stream is ``repro.service.load.mixed_game_stream``
at its default mix (40% exact repeats, 20% near-repeats), seeded with
the benchmark seed.
"""

from __future__ import annotations

import random


def server_seed(seed: int) -> int:
    """The demo server's ``--seed`` for a benchmark seed.  The server
    publishes game ``g<i>`` as ``random_bimatrix(size, size, seed=S+i)``;
    seeds lie 100000 apart so two benchmark seeds share no game."""
    return 100_000 * (seed + 1)


def demo_games(count: int, size: int, seed: int) -> list:
    """The games ``python -m repro.server --seed <server_seed(seed)>``
    publishes as ``g0`` .. ``g<count-1>``."""
    from repro.games.generators import random_bimatrix

    base = server_seed(seed)
    return [random_bimatrix(size, size, seed=base + i) for i in range(count)]


def arrival_offsets(count: int, seconds: float, seed: int) -> list[float]:
    """Poisson arrivals conditioned on ``count`` of them in
    ``[0, seconds)``: sorted independent uniform times.  Fixing the
    count keeps the offered rate exactly ``count / seconds``."""
    rng = random.Random(f"perfbench-arrivals:{seed}")
    return sorted(rng.uniform(0.0, seconds) for __ in range(count))


def game_bytes(game) -> bytes:
    """Canonical bytes of a bimatrix game's payoffs."""
    return repr((game.row_matrix, game.column_matrix)).encode()
