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
the same conditions — matching Lemma 1's "LP(n, m)" bound.

The verifier runs on Python ints.  On each call it clears the agent's
payoffs in the columns of S2 to one positive scale (its own clearing,
independent of the inventor's cached lattice).  The square system goes
through the integer Bareiss kernel
(:func:`repro.linalg.int_exact.solve_square_integers`), which returns
y_j = w_j / det with det > 0; the LP fallback runs on the integer
simplex (:mod:`repro.linalg.int_lp`) and its mix is cleared the same
way.  The probability checks are then ``0 <= w_j <= det`` and
``sum(w) == det``, the gains are integer dot products, and indifference
and the off-support test compare integers in units of scale * det.
Fractions are built only for the report.  :func:`fraction_p1_check`
keeps the Fraction arithmetic as the reference the parity tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.errors import EquilibriumError, LinearAlgebraError, TranscriptError
from repro.games.bimatrix import COLUMN, ROW, BimatrixGame
from repro.games.profiles import MixedProfile
from repro.linalg.int_exact import (
    integerize_vector,
    solve_square,
    solve_square_integers,
)
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
        report = self._verify_side(*_agent_view(self._game, self._agent, announcement))
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
        problem = _support_problem(own_support, other_support, num_own, num_other)
        if problem is not None:
            return self._reject(problem)

        # The verifier's own clearing: the agent's payoffs in the columns
        # of S2, one positive scale, so gains compare as scale * gain.
        k = len(other_support)
        flat, scale = integerize_vector(
            tuple(row[j] for row in payoff_rows for j in other_support)
        )
        columns = [flat[i * k:(i + 1) * k] for i in range(num_own)]

        solved = self._solve_system(
            payoff_rows, columns, own_support, other_support, num_other
        )
        if solved is None:
            return self._reject(
                "the support system (1) has no valid probability solution"
            )
        # y_j = weights[t] / det for j = other_support[t], with det > 0.
        weights, det = solved

        # Probability constraints: 0 <= y_t <= 1, summing to one.
        if any(w < 0 or w > det for w in weights):
            return self._reject("derived probabilities leave [0, 1]")
        if sum(weights) != det:
            return self._reject("derived probabilities do not sum to 1")

        # Gains in units of scale * det; zero weights add nothing.
        played = [(t, w) for t, w in enumerate(weights) if w]
        gains = [sum(row[t] * w for t, w in played) for row in columns]
        unit = scale * det
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
                    f"off-support action {i} earns {Fraction(gains[i], unit)} "
                    f"> λ = {Fraction(value, unit)}"
                )
        other_mix = [_ZERO] * num_other
        for t, w in played:
            other_mix[other_support[t]] = Fraction(w, det)
        return P1Report(
            accepted=True,
            reason="supports verified",
            other_mix=tuple(other_mix),
            value=Fraction(value, unit),
            linear_solves=self.linear_solves,
            lp_fallbacks=self.lp_fallbacks,
        )

    def _solve_system(
        self,
        payoff_rows: Sequence[Sequence[Fraction]],
        columns: Sequence[Sequence[int]],
        own_support: tuple[int, ...],
        other_support: tuple[int, ...],
        num_other: int,
    ) -> tuple[Sequence[int], int] | None:
        """Solve system (1) on ints: ``(weights on S2, det)``, det > 0.

        Exact square solve first, LP fallback after.  ``columns`` holds
        the agent's cleared payoffs in the columns of S2; scaling every
        payoff by one constant scales λ and leaves y unchanged.
        """
        k = len(other_support)
        if len(own_support) == k:
            # Square system: unknowns y_{j in S2} and λ.
            augmented = [[*columns[i], -1, 0] for i in own_support]
            augmented.append([1] * k + [0, 1])
            self.linear_solves += 1
            try:
                solution, det = solve_square_integers(augmented)
            except LinearAlgebraError:
                pass
            else:
                return solution[:k], det
        # Degenerate or non-square: exact LP feasibility (Lemma 1's LP bound).
        self.lp_fallbacks += 1
        result = solve_one_side(payoff_rows, own_support, other_support, num_other)
        if result is None:
            return None
        # The LP's variables are the mix on S2; clear them to one scale.
        return integerize_vector(tuple(result[0][j] for j in other_support))

    def _reject(self, reason: str) -> P1Report:
        return _rejected(reason, self.linear_solves, self.lp_fallbacks)


def fraction_p1_check(
    game: BimatrixGame, agent: int, announcement: P1Announcement
) -> P1Report:
    """The seed's Fraction-arithmetic P1 side (reference semantics).

    Same checks, in the same order, as :class:`P1Verifier`, with system
    (1), the gains and every comparison summed as Fractions.  The
    integer verifier must (and, per the parity tests, does) return an
    equal :class:`P1Report` on every input.
    """
    if agent not in (ROW, COLUMN):
        raise EquilibriumError("agent must be ROW or COLUMN")
    payoff_rows, own_support, other_support, num_own, num_other = _agent_view(
        game, agent, announcement
    )
    solves = fallbacks = 0
    problem = _support_problem(own_support, other_support, num_own, num_other)
    if problem is not None:
        return _rejected(problem, solves, fallbacks)

    y = None
    k = len(other_support)
    if len(own_support) == k:
        matrix = [
            [payoff_rows[i][j] for j in other_support] + [-_ONE]
            for i in own_support
        ]
        matrix.append([_ONE] * k + [_ZERO])
        solves += 1
        try:
            solution = solve_square(matrix, [_ZERO] * k + [_ONE])
        except LinearAlgebraError:
            pass
        else:
            y = [_ZERO] * num_other
            for idx, j in enumerate(other_support):
                y[j] = solution[idx]
    if y is None:
        fallbacks += 1
        result = solve_one_side(payoff_rows, own_support, other_support, num_other)
        if result is None:
            return _rejected(
                "the support system (1) has no valid probability solution",
                solves, fallbacks,
            )
        y = result[0]

    if any(prob < 0 or prob > 1 for prob in y):
        return _rejected("derived probabilities leave [0, 1]", solves, fallbacks)
    if sum(y, start=_ZERO) != 1:
        return _rejected("derived probabilities do not sum to 1", solves, fallbacks)
    played = [j for j in range(num_other) if y[j]]
    gains = [
        sum((y[j] * payoff_rows[i][j] for j in played), start=_ZERO)
        for i in range(num_own)
    ]
    value = gains[own_support[0]]
    for i in own_support:
        if gains[i] != value:
            return _rejected(
                f"supported action {i} is not indifferent (λ broken)",
                solves, fallbacks,
            )
    for i in range(num_own):
        if i not in own_support and gains[i] > value:
            return _rejected(
                f"off-support action {i} earns {gains[i]} > λ = {value}",
                solves, fallbacks,
            )
    return P1Report(
        accepted=True,
        reason="supports verified",
        other_mix=tuple(y),
        value=value,
        linear_solves=solves,
        lp_fallbacks=fallbacks,
    )


def _agent_view(game: BimatrixGame, agent: int, announcement: P1Announcement):
    """``(payoff_rows, own_support, other_support, num_own, num_other)``.

    The column agent's payoffs are viewed with its own actions as rows.
    """
    num_rows, num_columns = game.action_counts
    if agent == ROW:
        return (
            game.row_matrix,
            announcement.row_support,
            announcement.column_support,
            num_rows,
            num_columns,
        )
    return (
        game.column_matrix_transposed,
        announcement.column_support,
        announcement.row_support,
        num_columns,
        num_rows,
    )


def _support_problem(
    own_support: tuple[int, ...],
    other_support: tuple[int, ...],
    num_own: int,
    num_other: int,
) -> str | None:
    """Why the announced supports cannot be checked, or None."""
    if not own_support or not other_support:
        return "a support set is empty"
    if any(not 0 <= i < num_own for i in own_support):
        return "own support indices out of range"
    if any(not 0 <= j < num_other for j in other_support):
        return "other support indices out of range"
    return None


def _rejected(reason: str, linear_solves: int, lp_fallbacks: int) -> P1Report:
    return P1Report(
        accepted=False,
        reason=reason,
        other_mix=None,
        value=None,
        linear_solves=linear_solves,
        lp_fallbacks=lp_fallbacks,
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
