"""Tests for the interactive proofs P1 and P2, transcripts, the n-player
generalization, privacy (Remark 2), and dishonest provers."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TranscriptError
from repro.games import BimatrixGame, COLUMN, MixedProfile, ROW
from repro.games.generators import random_bimatrix, rock_paper_scissors
from repro.equilibria import is_mixed_nash, lemke_howson, support_enumeration
from repro.interactive import (
    AdaptiveMembershipProver,
    LyingMembershipProver,
    NonEquilibriumProver,
    P1Announcement,
    P1Prover,
    P1Verifier,
    P2Prover,
    P2Verifier,
    Transcript,
    WrongValueProver,
    announce_nplayer,
    consistent_other_mixes,
    decode_announcement,
    fig5_consistent_column_mixes,
    fig5_row_view,
    membership_bits_learned,
    p1_bits_revealed,
    payload_bits,
    run_p1_exchange,
    run_p2_exchange,
    support_bitvector,
    support_from_bitvector,
    verify_nplayer,
    view_from_session,
)
from repro.interactive.p1 import fraction_p1_check
from repro.interactive.p2 import P2Disclosure
from repro.rng import make_rng


class TestTranscripts:
    def test_bitvector_round_trip(self):
        vector = support_bitvector((0, 2, 5), 6)
        assert vector == "101001"
        assert support_from_bitvector(vector) == (0, 2, 5)

    def test_bitvector_out_of_range(self):
        with pytest.raises(TranscriptError):
            support_bitvector((7,), 3)

    def test_bitvector_bad_chars(self):
        with pytest.raises(TranscriptError):
            support_from_bitvector("10a")

    def test_support_bits_charged_one_per_index(self):
        bits = payload_bits({"support_bitvector": "10101"})
        assert bits == 5

    def test_mixed_payload_charges_json_for_rest(self):
        bits = payload_bits({"support_bitvector": "111", "x": 1})
        assert bits > 3

    def test_fraction_encoding(self):
        bits = payload_bits({"value": Fraction(1, 3)})
        assert bits > 0

    def test_unencodable_payload(self):
        with pytest.raises(TranscriptError):
            payload_bits({"x": object()})

    def test_transcript_accounting(self):
        t = Transcript(protocol="demo")
        t.record("prover", "a", {"support_bitvector": "1100"})
        t.record("verifier", "b", {"q": 1})
        assert len(t) == 2
        assert t.bits_from("prover") == 4
        assert t.total_bits() == 4 + t.messages[1].bits()
        assert t.messages_of_kind("a")[0].sender == "prover"

    def test_transcript_rejects_unknown_sender(self):
        t = Transcript(protocol="demo")
        with pytest.raises(TranscriptError):
            t.record("eve", "x", {})

    def test_digest_view(self):
        t = Transcript(protocol="demo")
        t.record("prover", "a", {"k": 1})
        view = t.digest_view()
        assert view[0]["sender"] == "prover"
        assert view[0]["bits"] > 0


class TestP1:
    def test_honest_exchange_accepts(self, pennies):
        eq = lemke_howson(pennies, 0)
        row_report, col_report = run_p1_exchange(pennies, eq)
        assert row_report.accepted and col_report.accepted
        assert row_report.other_mix == (Fraction(1, 2), Fraction(1, 2))
        assert row_report.value == Fraction(0)

    def test_bits_are_exactly_n_plus_m(self):
        game = random_bimatrix(7, 9, seed=5)
        eq = lemke_howson(game, 0)
        transcript = Transcript(protocol="P1")
        run_p1_exchange(game, eq, transcript)
        prover_bits = transcript.bits_from("prover")
        assert prover_bits == 7 + 9 == p1_bits_revealed(7, 9)

    def test_wrong_support_rejected_jointly(self, pennies):
        """Soundness is joint: the row side alone accepts (row 0 *is* a
        best reply to column-heads), but the column side rejects — the
        paper's two-verifier structure is load-bearing."""
        announcement = P1Announcement(row_support=(0,), column_support=(0,))
        row_report = P1Verifier(pennies, ROW).verify(announcement)
        col_report = P1Verifier(pennies, COLUMN).verify(announcement)
        assert row_report.accepted
        assert not col_report.accepted

    def test_empty_support_rejected(self, pennies):
        announcement = P1Announcement(row_support=(), column_support=(0,))
        report = P1Verifier(pennies, ROW).verify(announcement)
        assert not report.accepted
        assert "empty" in report.reason

    def test_out_of_range_support_rejected(self, pennies):
        announcement = P1Announcement(row_support=(0, 5), column_support=(0,))
        assert not P1Verifier(pennies, ROW).verify(announcement).accepted

    def test_column_agent_mirror(self, bos):
        eq = support_enumeration(bos)[-1]  # the mixed one
        announcement = P1Prover(bos, eq).announce()
        report = P1Verifier(bos, COLUMN).verify(announcement)
        assert report.accepted
        # The column agent derives the ROW mix from B.
        assert report.other_mix == eq.distribution(ROW)

    def test_degenerate_support_takes_lp_path(self, fig5_game):
        # Row support {A}, column support {C, D}: sizes differ -> LP.
        eq = MixedProfile.from_rows([[1, 0], ["1/2", "1/2"]])
        announcement = P1Prover(fig5_game, eq).announce()
        verifier = P1Verifier(fig5_game, COLUMN)
        report = verifier.verify(announcement)
        assert report.accepted
        assert report.lp_fallbacks >= 1

    def test_decode_announcement(self):
        announcement = decode_announcement("10" + "011", 2, 3)
        assert announcement.row_support == (0,)
        assert announcement.column_support == (1, 2)

    def test_decode_announcement_length_check(self):
        with pytest.raises(TranscriptError):
            decode_announcement("101", 2, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_p1_accepts_all_lemke_howson_equilibria(self, seed):
        game = random_bimatrix(4, 4, seed=seed)
        eq = lemke_howson(game, seed % 8)
        row_report, col_report = run_p1_exchange(game, eq)
        assert row_report.accepted and col_report.accepted

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_p1_joint_acceptance_implies_equilibrium(self, seed):
        """Soundness: whenever both sides accept an announcement, the
        mixes the two verifiers derive form an exact Nash equilibrium."""
        game = random_bimatrix(3, 3, seed=seed)
        announcement = P1Announcement(
            row_support=(0, 1, 2), column_support=(0, 1, 2)
        )
        row_report = P1Verifier(game, ROW).verify(announcement)
        col_report = P1Verifier(game, COLUMN).verify(announcement)
        if row_report.accepted and col_report.accepted:
            # row agent derived y; column agent derived x.
            profile = MixedProfile((col_report.other_mix, row_report.other_mix))
            assert is_mixed_nash(game, profile)


def _parity_game(kind: str, n: int, m: int, seed: int) -> BimatrixGame:
    """Random integers, ties in {-1,0,1} or {-2..2}, or Fractions with
    mixed denominators up to 49."""
    rng = make_rng(seed, f"p1-parity:{kind}")

    def cell():
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "tie3":
            return rng.choice((-1, 0, 1))
        if kind == "tie5":
            return rng.choice((-2, -1, 0, 1, 2))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 49))

    a = [[cell() for _ in range(m)] for _ in range(n)]
    b = [[cell() for _ in range(m)] for _ in range(n)]
    return BimatrixGame(a, b, name=f"{kind}({n}x{m}, seed={seed})")


def _subsets(k: int):
    return [
        tuple(i for i in range(k) if mask >> i & 1) for mask in range(1 << k)
    ]


def _every_announcement(n: int, m: int):
    """Every pair of supports, the empty ones included, and three out of
    range."""
    announcements = [
        P1Announcement(rs, cs) for rs in _subsets(n) for cs in _subsets(m)
    ]
    announcements += [
        P1Announcement((n,), (0,)),
        P1Announcement((0,), (m,)),
        P1Announcement((-1, 0), (0,)),
    ]
    return announcements


def _parity_cases():
    """(game, agent, announcement) over a fixed corpus of small games."""
    for n, m in [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        for kind in ("int", "tie3", "tie5", "frac"):
            for seed in range(2):
                game = _parity_game(kind, n, m, 6100 + 10 * seed + n * m)
                for announcement in _every_announcement(n, m):
                    for agent in (ROW, COLUMN):
                        yield game, agent, announcement


def _report_line(game, agent, announcement, report) -> bytes:
    mix = None if report.other_mix is None else ",".join(map(str, report.other_mix))
    return (
        f"{game.name}:{agent}:{announcement.row_support}:"
        f"{announcement.column_support}:{report.accepted}:{report.reason}:"
        f"{mix}:{report.value}:{report.linear_solves}:{report.lp_fallbacks}\n"
    ).encode()


#: SHA-256 over the 3,104 P1 reports of :func:`_parity_cases` (828
#: accepted), recorded with the Fraction-arithmetic verifier.
P1_REPORT_DIGEST = (
    "da925ca4e57703435d4d6a49b9e4140ef6d1c0a8efe0f6f2bf83b4cf20b011cc"
)


def _cells_game(cells):
    """Hypothesis strategy: a game of 1..4 by 1..5 actions over ``cells``."""

    def matrices(shape):
        n, m = shape
        matrix = st.lists(
            st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n
        )
        return st.tuples(matrix, matrix)

    return st.tuples(
        st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5)
    ).flatmap(matrices).map(lambda ab: BimatrixGame(*ab))


def _support(k: int):
    """Mostly in-range supports (empty included), sometimes out of range."""
    in_range = st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k)
    anywhere = st.sets(st.integers(min_value=-1, max_value=k), max_size=k + 1)
    return st.one_of(in_range, in_range, in_range, anywhere).map(
        lambda support: tuple(sorted(support))
    )


class TestIntegerP1Parity:
    """The integer verifier returns the Fraction reference's reports:
    verdict, reason, derived mix, value and solve counts."""

    def test_every_announcement_matches_the_reference(self):
        for game, agent, announcement in _parity_cases():
            report = P1Verifier(game, agent).verify(announcement)
            assert report == fraction_p1_check(game, agent, announcement), (
                game.name, agent, announcement,
            )
            if report.accepted:
                assert all(type(p) is Fraction for p in report.other_mix)
                assert type(report.value) is Fraction

    def test_reports_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for game, agent, announcement in _parity_cases():
            report = P1Verifier(game, agent).verify(announcement)
            digest.update(_report_line(game, agent, announcement, report))
        assert digest.hexdigest() == P1_REPORT_DIGEST

    def test_corpus_reaches_every_leg(self):
        """The corpus takes the square solve, the LP leg and the LP after
        a singular square system, and rejects on every check."""
        seen = set()
        for game, agent, announcement in _parity_cases():
            report = P1Verifier(game, agent).verify(announcement)
            legs = (report.linear_solves, report.lp_fallbacks)
            seen.add((report.accepted, legs))
            seen.add(report.reason.split(" ")[0])
        assert {(True, (1, 0)), (True, (0, 1)), (True, (1, 1))} <= seen
        assert {(False, (1, 0)), (False, (0, 1)), (False, (1, 1))} <= seen
        assert {"a", "own", "other", "derived", "off-support", "the"} <= seen

    def _check(self, data, cells):
        game = data.draw(_cells_game(cells))
        n, m = game.action_counts
        for __ in range(4):
            announcement = P1Announcement(
                data.draw(_support(n)), data.draw(_support(m))
            )
            for agent in (ROW, COLUMN):
                assert P1Verifier(game, agent).verify(announcement) == (
                    fraction_p1_check(game, agent, announcement)
                )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_integer_games(self, data):
        self._check(data, st.integers(min_value=-9, max_value=9))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tie_heavy_games(self, data):
        self._check(data, st.sampled_from((-1, 0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fraction_payoffs_with_distinct_denominators(self, data):
        self._check(
            data,
            st.builds(
                Fraction,
                st.integers(min_value=-9, max_value=9),
                st.integers(min_value=1, max_value=49),
            ),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_honest_announcements(self, seed):
        game = random_bimatrix(4, 5, seed=seed)
        announcement = P1Prover(game, lemke_howson(game, seed % 9)).announce()
        for agent in (ROW, COLUMN):
            report = P1Verifier(game, agent).verify(announcement)
            assert report.accepted
            assert report == fraction_p1_check(game, agent, announcement)


class TestP2:
    def test_honest_exchange_accepts(self, rng):
        game = random_bimatrix(5, 5, seed=17)
        eq = lemke_howson(game, 0)
        row_report, col_report = run_p2_exchange(game, eq, rng)
        assert row_report.accepted and col_report.accepted

    def test_commitment_mode_accepts(self, rng):
        game = random_bimatrix(4, 4, seed=23)
        eq = lemke_howson(game, 0)
        row_report, col_report = run_p2_exchange(
            game, eq, rng, use_commitments=True
        )
        assert row_report.accepted and col_report.accepted

    def test_wrong_value_prover_rejected(self, pennies, rng):
        eq = lemke_howson(pennies, 0)
        prover = WrongValueProver(pennies, eq, ROW)
        verifier = P2Verifier(pennies, ROW, rng=rng)
        report = verifier.verify(prover)
        assert not report.accepted
        assert report.conclusive

    def test_non_equilibrium_prover_rejected(self, pennies, rng):
        fake = MixedProfile.from_rows([[1, 0], [1, 0]])  # not an equilibrium
        prover = NonEquilibriumProver(pennies, fake, ROW)
        report = P2Verifier(pennies, ROW, rng=rng).verify(prover)
        assert not report.accepted

    def test_always_lying_prover_detected(self, rng):
        game = random_bimatrix(5, 5, seed=31)
        eq = lemke_howson(game, 0)
        prover = LyingMembershipProver(game, eq, ROW, flip_p=1.0)
        report = P2Verifier(game, ROW, rng=rng).verify(prover)
        # Flipping every answer either triggers an inconsistency or
        # (rarely) starves conclusive rounds; either way: no acceptance,
        # unless the flipped answers happen to be consistent with another
        # equilibrium structure - the strict check rejects on honest games.
        assert not report.accepted or prover.lies_told == 0

    def test_adaptive_prover_stalls_without_commitments(self, pennies):
        eq = lemke_howson(pennies, 0)
        prover = AdaptiveMembershipProver(pennies, eq, ROW)
        verifier = P2Verifier(pennies, ROW, rng=random.Random(1), max_rounds=50)
        report = verifier.verify(prover)
        assert not report.accepted
        assert not report.conclusive  # budget exhaustion, not detection

    def test_adaptive_prover_caught_with_commitments(self, pennies):
        eq = lemke_howson(pennies, 0)
        prover = AdaptiveMembershipProver(
            pennies, eq, ROW, use_commitments=True, rng=random.Random(2)
        )
        verifier = P2Verifier(pennies, ROW, rng=random.Random(3), max_rounds=200)
        report = verifier.verify(prover)
        assert not report.accepted
        assert report.conclusive  # commitment contradiction is detected
        assert "commitment" in report.reason or "contradicts" in report.reason

    def test_malformed_disclosure_rejected(self, pennies, rng):
        eq = lemke_howson(pennies, 0)
        prover = P2Prover(pennies, eq, ROW)
        disclosure = prover.disclose()
        bad = P2Disclosure(
            own_support=(0,),  # inconsistent with the probabilities
            own_probabilities=disclosure.own_probabilities,
            own_value=disclosure.own_value,
            other_value=disclosure.other_value,
        )
        verifier = P2Verifier(pennies, ROW, rng=rng)
        report = verifier.verify_with_disclosure(bad, prover)
        assert not report.accepted
        assert "support" in report.reason

    def test_probabilities_not_summing_rejected(self, pennies, rng):
        eq = lemke_howson(pennies, 0)
        prover = P2Prover(pennies, eq, ROW)
        disclosure = prover.disclose()
        bad = P2Disclosure(
            own_support=(0, 1),
            own_probabilities=(Fraction(1, 2), Fraction(1, 3)),
            own_value=disclosure.own_value,
            other_value=disclosure.other_value,
        )
        report = P2Verifier(pennies, ROW, rng=rng).verify_with_disclosure(bad, prover)
        assert not report.accepted

    def test_required_conclusive_rounds(self, rng):
        game = random_bimatrix(6, 6, seed=41)
        eq = lemke_howson(game, 0)
        prover = P2Prover(game, eq, ROW)
        verifier = P2Verifier(game, ROW, rng=rng, required_conclusive=3)
        report = verifier.verify(prover)
        assert report.accepted
        assert report.conclusive_rounds == 3

    def test_rounds_scale_with_support_sparsity(self):
        # A 1-in-m support needs ~m/2 x more rounds than a full support.
        rng = random.Random(11)
        sparse_rounds = []
        dense_rounds = []
        for trial in range(40):
            game = rock_paper_scissors()
            eq = lemke_howson(game, 0)  # full support (1/3 each)
            prover = P2Prover(game, eq, ROW)
            report = P2Verifier(game, ROW, rng=rng).verify(prover)
            dense_rounds.append(report.rounds)
            pennies_like = BimatrixGame(
                [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            )
            pure_eq = MixedProfile.from_rows([[1, 0, 0], [1, 0, 0]])
            prover2 = P2Prover(pennies_like, pure_eq, ROW)
            report2 = P2Verifier(pennies_like, ROW, rng=rng).verify(prover2)
            sparse_rounds.append(report2.rounds)
        assert sum(dense_rounds) <= sum(sparse_rounds)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_p2_completeness_on_random_games(self, seed):
        game = random_bimatrix(4, 4, seed=seed)
        eq = lemke_howson(game, 0)
        rng = random.Random(seed)
        row_report, col_report = run_p2_exchange(game, eq, rng)
        assert row_report.accepted and col_report.accepted


class TestNPlayer:
    def test_three_player_equilibrium_verifies(self):
        from repro.games.generators import pure_dominance_game

        game = pure_dominance_game()
        eq = MixedProfile.pure((1, 1, 1), game.action_counts)
        announcement = announce_nplayer(game, eq)
        report = verify_nplayer(game, announcement)
        assert report.accepted

    def test_non_equilibrium_rejected(self):
        from repro.games.generators import pure_dominance_game

        game = pure_dominance_game()
        eq = MixedProfile.pure((0, 0, 0), game.action_counts)
        announcement = announce_nplayer(game, eq)
        assert not verify_nplayer(game, announcement).accepted

    def test_mismatched_support_rejected(self, pennies):
        eq = lemke_howson(pennies, 0)
        announcement = announce_nplayer(pennies, eq)
        from repro.interactive import NPlayerAnnouncement

        tampered = NPlayerAnnouncement(
            supports=((0,), announcement.supports[1]),
            probabilities=announcement.probabilities,
        )
        report = verify_nplayer(pennies, tampered)
        assert not report.accepted

    def test_values_reported(self, pennies):
        eq = lemke_howson(pennies, 0)
        report = verify_nplayer(pennies, announce_nplayer(pennies, eq))
        assert report.accepted
        assert report.values == (Fraction(0), Fraction(0))

    def test_transcript_bits(self, pennies):
        eq = lemke_howson(pennies, 0)
        transcript = Transcript(protocol="Pn")
        announce_nplayer(pennies, eq, transcript)
        assert transcript.total_bits() > 4  # 4 support bits + probabilities


class TestPrivacyRemark2:
    def test_fig5_view_admits_a_continuum(self):
        mixes = fig5_consistent_column_mixes(samples=11)
        # qD in {0, 1/10, ..., 1/2}: six consistent candidates.
        assert len(mixes) == 6
        assert all(q[1] <= Fraction(1, 2) for q in mixes)

    def test_fig5_rejects_heavy_d_mixes(self):
        game, view = fig5_row_view()
        candidates = [(Fraction(1, 4), Fraction(3, 4))]
        assert consistent_other_mixes(game, view, candidates) == ()

    def test_view_with_answers_narrows_consistency(self):
        game, view = fig5_row_view()
        # Suppose the row agent learned that column index 1 (D) is in the
        # support; pure-C mixes are no longer consistent.
        from repro.interactive.privacy import P2View

        narrowed = P2View(
            agent=view.agent,
            own_support=view.own_support,
            own_probabilities=view.own_probabilities,
            own_value=view.own_value,
            other_value=view.other_value,
            membership_answers={1: True},
        )
        candidates = [
            (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        ]
        consistent = consistent_other_mixes(game, narrowed, candidates)
        assert consistent == ((Fraction(1, 2), Fraction(1, 2)),)

    def test_view_from_session_and_leakage(self, rng):
        game = random_bimatrix(5, 5, seed=71)
        eq = lemke_howson(game, 0)
        prover = P2Prover(game, eq, ROW)
        verifier = P2Verifier(game, ROW, rng=rng)
        disclosure = prover.disclose()
        report = verifier.verify_with_disclosure(disclosure, prover)
        view = view_from_session(ROW, disclosure, report)
        learned = membership_bits_learned(view)
        assert 0 < learned <= 2 * report.rounds
        # P2 leaks at most the queried indices; P1 leaks everything.
        assert learned <= p1_bits_revealed(5, 5)

    def test_p2_leaks_less_than_p1_on_average(self):
        game = random_bimatrix(8, 8, seed=3)
        eq = lemke_howson(game, 0)
        total_learned = 0
        trials = 30
        for i in range(trials):
            rng = random.Random(1000 + i)
            prover = P2Prover(game, eq, ROW)
            verifier = P2Verifier(game, ROW, rng=rng)
            disclosure = prover.disclose()
            report = verifier.verify_with_disclosure(disclosure, prover)
            assert report.accepted
            total_learned += membership_bits_learned(
                view_from_session(ROW, disclosure, report)
            )
        assert total_learned / trials < p1_bits_revealed(8, 8)
