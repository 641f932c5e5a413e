"""B4 — the fraction-free exact kernel vs the Fraction baseline.

PRs 1-3 made the *search* side of the paper's asymmetry fast; this bench
prices the *exact* side — the arithmetic that certification and proof
checking actually run on — against the seed's Fraction implementation:

* **Elimination kernel**: Lemma-1 support-restricted systems solved by
  integer Bareiss (:mod:`repro.linalg.int_exact`) vs Fraction Gaussian
  elimination (:mod:`repro.linalg.exact`), results bit-identical;
* **Batched certification**: :func:`repro.equilibria.certify_many` on
  the game's cached integer lattice vs the Fraction Lemma-1 gate, same
  accept/reject verdicts;
* **Proof-check kernel**: the integerized ``allNash`` check vs the
  Fraction oracle (same decisions, same counters) — the E6 workload.
  One window of it lasts a few milliseconds, so its row gates the
  median ratio over ``PROOFCHECK_WINDOWS`` alternating (Fraction,
  integer) window pairs, not one pair that host noise alone can sink;
* **End-to-end**: equilibrium sets stay bit-identical across search
  backends under the new certifier, and a consultation reports the
  ``verify_ms`` half of the search-vs-verify split.

The committed default-scale ``BENCH_exact_kernel.json`` is the baseline
the CI perf-smoke job guards (``check_exact_kernel_regression.py``).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from repro.analysis import PaperComparison, TextTable
from repro.equilibria.mixed import certify_many, fraction_nash_check
from repro.equilibria.support_enumeration import support_enumeration
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile, enumerate_profiles
from repro.games.strategic import StrategicGame
from repro.linalg import exact, int_exact
from repro.proofs import build_all_nash_certificate, check_certificate
from repro.rng import make_rng

#: Acceptance floors.  The kernel and certification speedups carry the
#: PR's >= 3x acceptance target at the committed (default) scale; quick
#: smoke runs on shared CI boxes get a relaxed floor, and the
#: proof-check kernel's target is "drops measurably" (the checking cost
#: is dominated by profile validation, not arithmetic — the integer
#: table roughly halves it).
_REQUIRED_SPEEDUP = 3.0
_QUICK_REQUIRED_SPEEDUP = 1.5
_REQUIRED_PROOFCHECK_SPEEDUP = 1.2

#: Alternating (Fraction, integer) allNash window pairs; the row gates
#: the median of their paired ratios.
PROOFCHECK_WINDOWS = 7


def _params(bench_scale):
    # (certify game size, candidate count, kernel reps, proof game side)
    return {
        "quick": (6, 60, 40, 4),
        "default": (8, 200, 150, 6),
        "full": (10, 400, 300, 8),
    }[bench_scale]


def _rational_bimatrix(size: int, seed: int) -> BimatrixGame:
    """Payoffs with genuine denominators — the lattice's target workload."""
    rng = make_rng(seed, f"rational-bimatrix:{size}")

    def draw():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    a = [[draw() for _ in range(size)] for _ in range(size)]
    b = [[draw() for _ in range(size)] for _ in range(size)]
    return BimatrixGame(a, b, name=f"B4Rational{size}")


def _rational_strategic(counts, seed: int) -> StrategicGame:
    rng = make_rng(seed, f"rational-strategic:{counts}")
    table = {
        profile: tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in counts
        )
        for profile in enumerate_profiles(counts)
    }
    return StrategicGame(counts, table, name="B4RationalStrategic")


def _lemma1_systems(game: BimatrixGame):
    """Support-restricted indifference systems (the certify-stage solves)."""
    n, m = game.action_counts
    systems = []
    for size in range(2, min(n, m) + 1):
        rs = tuple(range(size))
        cs = tuple(range(size))
        matrix = []
        rhs = []
        for i in rs:
            matrix.append([game.row_matrix[i][j] for j in cs] + [Fraction(-1)])
            rhs.append(Fraction(0))
        matrix.append([Fraction(1)] * size + [Fraction(0)])
        rhs.append(Fraction(1))
        systems.append((matrix, rhs))
    return systems


def test_bench_exact_kernel(benchmark, bench_scale, record_table, record_metrics):
    certify_size, candidate_count, kernel_reps, proof_side = _params(bench_scale)

    # --- 1. The elimination kernel: Bareiss vs Fraction Gaussian. ---
    kernel_game = _rational_bimatrix(certify_size + 2, 77)
    systems = _lemma1_systems(kernel_game)

    def _solve_all(solver):
        results = []
        for matrix, rhs in systems:
            try:
                results.append(solver(matrix, rhs))
            except Exception as exc:  # singular/inconsistent: record kind
                results.append(type(exc).__name__)
        return results

    start = time.perf_counter()
    for _ in range(kernel_reps):
        fraction_solutions = _solve_all(exact.solve_linear_system)
    fraction_kernel_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(kernel_reps):
        bareiss_solutions = _solve_all(int_exact.solve_linear_system)
    bareiss_kernel_s = time.perf_counter() - start
    assert bareiss_solutions == fraction_solutions, (
        "Bareiss kernel diverged from the Fraction reference"
    )
    kernel_speedup = (
        fraction_kernel_s / bareiss_kernel_s if bareiss_kernel_s > 0 else float("inf")
    )

    # --- 2. Batched certification on the integer lattice. ---
    certify_game = _rational_bimatrix(certify_size, 5)
    equilibria = list(support_enumeration(certify_game, equal_size_only=True))
    assert equilibria, "bench game drew no equal-support equilibria"
    n, m = certify_game.action_counts
    pool = equilibria + [MixedProfile.uniform((n, m))]
    candidates = (pool * (candidate_count // len(pool) + 1))[:candidate_count]

    start = time.perf_counter()
    fraction_verdicts = [
        profile if fraction_nash_check(certify_game, profile) else None
        for profile in candidates
    ]
    fraction_certify_s = time.perf_counter() - start
    start = time.perf_counter()
    lattice_verdicts = certify_many(certify_game, candidates)
    lattice_certify_s = time.perf_counter() - start
    assert lattice_verdicts == fraction_verdicts, (
        "integer-lattice certification diverged from the Fraction gate"
    )
    certify_speedup = (
        fraction_certify_s / lattice_certify_s
        if lattice_certify_s > 0
        else float("inf")
    )

    # --- 3. The proof-check kernel (E6's allNash workload). ---
    proof_game = _rational_strategic((proof_side, proof_side), 9)
    certificate = build_all_nash_certificate(proof_game)
    proof_reps = max(5, kernel_reps // 5)
    check_certificate(proof_game, certificate)  # build the per-game table once

    def _check_window(integerize):
        start = time.perf_counter()
        for _ in range(proof_reps):
            verdict = check_certificate(
                proof_game, certificate, integerize=integerize
            )
        return time.perf_counter() - start, verdict

    fraction_check_s, integer_check_s, proofcheck_ratios = [], [], []
    for _ in range(PROOFCHECK_WINDOWS):
        fraction_s, fraction_check = _check_window(False)
        integer_s, integer_check = _check_window(True)
        assert integer_check == fraction_check  # decisions AND counters
        fraction_check_s.append(fraction_s)
        integer_check_s.append(integer_s)
        proofcheck_ratios.append(
            fraction_s / integer_s if integer_s > 0 else float("inf")
        )
    assert integer_check.accepted
    proofcheck_speedup = statistics.median(proofcheck_ratios)

    # --- 4. End-to-end guarantees: sets unchanged, verify_ms reported. ---
    assert support_enumeration(
        certify_game, equal_size_only=True, policy="float+certify"
    ) == tuple(equilibria)

    from repro.core.actors import AuthorityAgent, BimatrixInventor
    from repro.core.authority import RationalityAuthority
    from repro.core.registry import standard_procedures

    authority = RationalityAuthority(seed=3)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor("b4", method="support-enumeration")
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    authority.publish_game("b4", "g0", certify_game)
    outcome = authority.consult("jane", "g0")
    assert outcome.advice.verify_ms >= 0.0
    assert outcome.advice.solve_ms >= 0.0
    authority.close()

    # --- Reporting. ---
    table = TextTable(
        ["kernel", "fraction (s)", "fraction-free (s)", "speedup"],
        title="B4: fraction-free exact kernel vs Fraction baseline",
    )
    table.add_row(
        f"lemma-1 solves (n={certify_size + 2})",
        f"{fraction_kernel_s:.3f}", f"{bareiss_kernel_s:.3f}",
        f"{kernel_speedup:.1f}x",
    )
    table.add_row(
        f"certify x{candidate_count} (n={certify_size})",
        f"{fraction_certify_s:.3f}", f"{lattice_certify_s:.3f}",
        f"{certify_speedup:.1f}x",
    )
    table.add_row(
        f"allNash check ({proof_side}x{proof_side}, median of "
        f"{PROOFCHECK_WINDOWS} window pairs)",
        f"{statistics.median(fraction_check_s):.3f}",
        f"{statistics.median(integer_check_s):.3f}",
        f"{proofcheck_speedup:.1f}x [{min(proofcheck_ratios):.1f}, "
        f"{max(proofcheck_ratios):.1f}]",
    )
    record_table("b4_exact_kernel", table.render())
    record_metrics(
        "exact_kernel",
        [
            {"metric": "bareiss_kernel_speedup", "value": kernel_speedup,
             "size": certify_size + 2, "unit": "x"},
            {"metric": "certify_speedup", "value": certify_speedup,
             "size": certify_size, "candidates": candidate_count, "unit": "x"},
            {"metric": "proofcheck_speedup", "value": proofcheck_speedup,
             "min": min(proofcheck_ratios), "max": max(proofcheck_ratios),
             "n": len(proofcheck_ratios), "size": proof_side, "unit": "x"},
            {"metric": "fraction_certify_seconds", "value": fraction_certify_s,
             "unit": "s"},
            {"metric": "lattice_certify_seconds", "value": lattice_certify_s,
             "unit": "s"},
        ],
        backend="exact",
    )

    required = (
        _QUICK_REQUIRED_SPEEDUP if bench_scale == "quick" else _REQUIRED_SPEEDUP
    )
    comparison = PaperComparison("B4 / fraction-free exact kernel")
    comparison.add(
        "integer Bareiss beats Fraction elimination",
        f">= {required:.1f}x",
        f"{kernel_speedup:.1f}x",
        kernel_speedup >= required,
    )
    comparison.add(
        "batched lattice certification beats the Fraction gate",
        f">= {required:.1f}x",
        f"{certify_speedup:.1f}x",
        certify_speedup >= required,
    )
    comparison.add(
        "allNash checking cost drops measurably",
        f">= {_REQUIRED_PROOFCHECK_SPEEDUP:.1f}x (median)",
        f"{proofcheck_speedup:.1f}x (median of {PROOFCHECK_WINDOWS})",
        proofcheck_speedup >= _REQUIRED_PROOFCHECK_SPEEDUP,
    )
    comparison.add(
        "equilibrium sets and certificates bit-identical",
        "all equal",
        "all equal",
        True,  # asserted above; recorded for the table
    )
    record_table("b4_exact_kernel_comparison", comparison.render())
    assert comparison.all_match()

    # Timed target for pytest-benchmark: the batched certify stage.
    benchmark(lambda: certify_many(certify_game, candidates))
