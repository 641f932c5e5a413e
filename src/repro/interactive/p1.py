"""The interactive proof P1 (Fig. 3).

Protocol:

* **Prover (inventor)**: "Provide each agent the agents' supports, i.e.,
  strategy profiles played with non-zero probabilities" — sent as the
  Lemma 1 bit-vectors, so the communication is exactly n + m bits.
* **Verifier of the row agent**: given the column support
  S2 = {j1..jk} and its own support S1, solve the linear system (1)

      λ1 = Σ_t y_t A(i, t)   for each i in S1,     Σ_t y_t = 1,

  then check 0 <= y <= 1 and, for each row i not in S1, that the
  expected gain is below λ1.

Lemma 1: verifier time is one linear solve (LP time in the degenerate
case), communication O(n + m) bits.  The column agent runs the mirror
image; *joint* soundness (the profile is a Nash equilibrium) needs both
sides, which :func:`run_p1_exchange` performs.

The system (1) is square when |S1| = |S2| and generically nonsingular;
for degenerate games the verifier falls back to exact LP feasibility over
the same conditions — matching Lemma 1's "LP(n, m)" bound.  Both legs
run fraction-free: the square solve on the integer Bareiss kernel
(:mod:`repro.linalg.int_exact`) and the LP fallback on the integer
simplex (:mod:`repro.linalg.int_lp`), each bit-identical to its
Fraction reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.errors import EquilibriumError, LinearAlgebraError, TranscriptError
from repro.games.bimatrix import COLUMN, ROW, BimatrixGame
from repro.games.profiles import MixedProfile
from repro.linalg.int_exact import solve_square
from repro.equilibria.support_enumeration import solve_one_side
from repro.interactive.transcripts import (
    PROVER,
    Transcript,
    VERIFIER,
    support_bitvector,
    support_from_bitvector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class P1Announcement:
    """What the P1 prover sends: both supports, as bit-vectors."""

    row_support: tuple[int, ...]
    column_support: tuple[int, ...]


@dataclass(frozen=True)
class P1Report:
    """Outcome of one agent's P1 verification.

    ``other_mix`` is the opponent's equilibrium mix the verifier derived
    from its *own* payoff matrix (P1 reveals supports, so this derivation
    is possible — the privacy gap P2 closes).  ``value`` is the agent's
    equilibrium payoff λ.  ``linear_solves`` and ``lp_fallbacks`` witness
    the Lemma 1 cost accounting.
    """

    accepted: bool
    reason: str
    other_mix: tuple[Fraction, ...] | None
    value: Fraction | None
    linear_solves: int
    lp_fallbacks: int


class P1Prover:
    """The inventor's side: announces the equilibrium supports."""

    def __init__(self, game: BimatrixGame, equilibrium: MixedProfile):
        game._unpack(equilibrium)  # shape validation
        self._game = game
        self._equilibrium = equilibrium

    @property
    def equilibrium(self) -> MixedProfile:
        return self._equilibrium

    def announce(self, transcript: Transcript | None = None) -> P1Announcement:
        """Send both supports, charged n + m bits on the transcript."""
        row_support = self._equilibrium.support(ROW)
        column_support = self._equilibrium.support(COLUMN)
        if transcript is not None:
            n, m = self._game.action_counts
            transcript.record(
                PROVER,
                "p1.supports",
                {
                    "support_bitvector": support_bitvector(row_support, n)
                    + support_bitvector(column_support, m)
                },
            )
        return P1Announcement(row_support=row_support, column_support=column_support)


class P1Verifier:
    """One agent's verifier.  ``agent`` is ROW or COLUMN.

    The verifier uses only the agent's own payoff matrix: the row agent
    derives the *column* mix y from A (the mix that makes its supported
    rows indifferent), per the "second Nash theorem" reasoning of Lemma 1.
    """

    def __init__(self, game: BimatrixGame, agent: int):
        if agent not in (ROW, COLUMN):
            raise EquilibriumError("agent must be ROW or COLUMN")
        self._game = game
        self._agent = agent
        self.linear_solves = 0
        self.lp_fallbacks = 0

    def verify(
        self,
        announcement: P1Announcement,
        transcript: Transcript | None = None,
    ) -> P1Report:
        """Run the Fig. 3 verification for this agent."""
        self.linear_solves = 0
        self.lp_fallbacks = 0
        if self._agent == ROW:
            own_support = announcement.row_support
            other_support = announcement.column_support
            payoff_rows = self._game.row_matrix
            num_own, num_other = self._game.action_counts
        else:
            own_support = announcement.column_support
            other_support = announcement.row_support
            # The column agent's payoffs, viewed with its own actions as rows.
            b = self._game.column_matrix
            payoff_rows = tuple(
                tuple(b[i][j] for i in range(self._game.num_rows))
                for j in range(self._game.num_columns)
            )
            num_other, num_own = self._game.action_counts

        report = self._verify_side(payoff_rows, own_support, other_support, num_own, num_other)
        if transcript is not None:
            transcript.record(
                VERIFIER,
                "p1.verdict",
                {"agent": self._agent, "accepted": report.accepted},
            )
        return report

    # ------------------------------------------------------------------

    def _verify_side(
        self,
        payoff_rows: Sequence[Sequence[Fraction]],
        own_support: tuple[int, ...],
        other_support: tuple[int, ...],
        num_own: int,
        num_other: int,
    ) -> P1Report:
        if not own_support or not other_support:
            return self._reject("a support set is empty")
        if any(not 0 <= i < num_own for i in own_support):
            return self._reject("own support indices out of range")
        if any(not 0 <= j < num_other for j in other_support):
            return self._reject("other support indices out of range")

        y = self._solve_system(payoff_rows, own_support, other_support, num_other)
        if y is None:
            return self._reject(
                "the support system (1) has no valid probability solution"
            )

        # Probability constraints: 0 <= y_t <= 1, summing to one.
        if any(prob < 0 or prob > 1 for prob in y):
            return self._reject("derived probabilities leave [0, 1]")
        if sum(y, start=_ZERO) != 1:
            return self._reject("derived probabilities do not sum to 1")

        # Zero weights add nothing: sum over the opponent actions in play.
        played = [j for j in range(num_other) if y[j]]
        gains = [
            sum((y[j] * payoff_rows[i][j] for j in played), start=_ZERO)
            for i in range(num_own)
        ]
        value = gains[own_support[0]]
        for i in own_support:
            if gains[i] != value:
                return self._reject(
                    f"supported action {i} is not indifferent (λ broken)"
                )
        for i in range(num_own):
            if i in own_support:
                continue
            if gains[i] > value:
                return self._reject(
                    f"off-support action {i} earns {gains[i]} > λ = {value}"
                )
        return P1Report(
            accepted=True,
            reason="supports verified",
            other_mix=tuple(y),
            value=value,
            linear_solves=self.linear_solves,
            lp_fallbacks=self.lp_fallbacks,
        )

    def _solve_system(
        self,
        payoff_rows: Sequence[Sequence[Fraction]],
        own_support: tuple[int, ...],
        other_support: tuple[int, ...],
        num_other: int,
    ) -> tuple[Fraction, ...] | None:
        """Solve system (1); exact square solve first, LP fallback after."""
        k = len(other_support)
        if len(own_support) == k:
            # Square system: unknowns y_{j in S2} and λ.
            matrix = []
            rhs = []
            for i in own_support:
                matrix.append([payoff_rows[i][j] for j in other_support] + [-_ONE])
                rhs.append(_ZERO)
            matrix.append([_ONE] * k + [_ZERO])
            rhs.append(_ONE)
            self.linear_solves += 1
            try:
                solution = solve_square(matrix, rhs)
            except LinearAlgebraError:
                solution = None
            if solution is not None:
                y = [_ZERO] * num_other
                for idx, j in enumerate(other_support):
                    y[j] = solution[idx]
                return tuple(y)
        # Degenerate or non-square: exact LP feasibility (Lemma 1's LP bound).
        self.lp_fallbacks += 1
        result = solve_one_side(payoff_rows, own_support, other_support, num_other)
        if result is None:
            return None
        return result[0]

    def _reject(self, reason: str) -> P1Report:
        return P1Report(
            accepted=False,
            reason=reason,
            other_mix=None,
            value=None,
            linear_solves=self.linear_solves,
            lp_fallbacks=self.lp_fallbacks,
        )


def run_p1_exchange(
    game: BimatrixGame,
    equilibrium: MixedProfile,
    transcript: Transcript | None = None,
) -> tuple[P1Report, P1Report]:
    """Full P1 session: prover announces once, both agents verify.

    Accepting on both sides establishes that *some* equilibrium with the
    announced supports exists and each agent's support is a best reply —
    the joint soundness Lemma 1 packages.
    """
    if transcript is None:
        transcript = Transcript(protocol="P1")
    prover = P1Prover(game, equilibrium)
    announcement = prover.announce(transcript)
    row_report = P1Verifier(game, ROW).verify(announcement, transcript)
    column_report = P1Verifier(game, COLUMN).verify(announcement, transcript)
    return row_report, column_report


def decode_announcement(vector: str, num_rows: int, num_columns: int) -> P1Announcement:
    """Rebuild a :class:`P1Announcement` from the n+m bit-vector."""
    if len(vector) != num_rows + num_columns:
        raise TranscriptError(
            f"bit-vector length {len(vector)} != n+m = {num_rows + num_columns}"
        )
    row_support = support_from_bitvector(vector[:num_rows])
    column_support = tuple(
        j for j in support_from_bitvector(vector[num_rows:])
    )
    return P1Announcement(row_support=row_support, column_support=column_support)
