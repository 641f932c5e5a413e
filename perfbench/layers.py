"""Where the traced run records spans, and the per-layer metrics.

:func:`install` wraps the program's public functions and methods, one
span name per boundary; the part before the dot is the layer.
:func:`layer_metrics` turns the spans of a measured window into the
per-layer metrics listed in ``BENCHMARK.json``.

Conventions: ``<layer>.<op>_calls`` counts spans started in the
window; ``<layer>.<op>_ms`` is the mean wall time of one such call,
children included; ``<layer>.self_ms_per_consult`` is the layer's self
time (span time minus the part its child spans cover) summed over the
window and divided by the consultations completed in it.
"""

from __future__ import annotations

from spans import END, NAME, RID, START, ATTRS, self_times
from quantiles import percentile

#: Layers whose self time is reported per consultation.
SELF_LAYERS = ("service", "cache", "inventor", "equilibria", "linalg",
               "session", "registry", "audit", "bus", "journal")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def install(tracer) -> None:
    """Wrap every layer boundary of the imported program."""
    import importlib

    from repro.core import registry
    from repro.core.audit import AuditLog
    from repro.core.actors import BimatrixInventor
    from repro.core.authority import RationalityAuthority
    from repro.core.bus import MessageBus
    from repro.core.session import ConsultationSession
    # The package re-exports a function named support_enumeration, so
    # the modules are fetched by their full names.
    mixed = importlib.import_module("repro.equilibria.mixed")
    support_enumeration = importlib.import_module(
        "repro.equilibria.support_enumeration"
    )
    from repro.linalg import int_lp
    from repro.linalg.numpy_backend import NumpyBackend
    from repro.server import journal, wire
    from repro.service import persistence
    from repro.service.cache import SolveCache
    from repro.service.service import AuthorityService

    def submitted(tracer, span, args, kwargs, future):
        if future is not None:
            span[RID] = future.submission_id
            tracer.queue_rid(_arg(args, kwargs, 2, "game_id"),
                             future.submission_id)

    def opening(tracer, args, kwargs):
        tracer.adopt_rid(_arg(args, kwargs, 2, "game_id"))

    def keep_result(tracer, span, args, kwargs, result):
        span[ATTRS] = result

    def frame_bytes(tracer, span, args, kwargs, result):
        span[ATTRS] = len(result) if result is not None else 0

    tracer.wrap_function(wire.outcome_payload, "server.encode")
    tracer.wrap_method(AuthorityService, "submit", "service.submit",
                       on_exit=submitted)
    tracer.wrap_method(AuthorityService, "drain", "service.drain",
                       on_exit=keep_result)
    tracer.wrap_method(RationalityAuthority, "open_session", "session.open",
                       on_enter=opening)
    tracer.wrap_method(ConsultationSession, "request_advice",
                       "session.advise")
    tracer.wrap_method(ConsultationSession, "verify", "session.verify")
    tracer.wrap_method(ConsultationSession, "conclude", "session.conclude")
    tracer.wrap_method(SolveCache, "lookup_profile", "cache.lookup")
    tracer.wrap_method(SolveCache, "store_profile", "cache.store")
    tracer.wrap_method(SolveCache, "note_hint", "cache.hint")
    tracer.wrap_method(BimatrixInventor, "solve", "inventor.solve")
    tracer.wrap_function(support_enumeration.find_one_equilibrium,
                         "equilibria.search")
    for func in (support_enumeration.reconstruct_one_side,
                 support_enumeration.equilibrium_for_supports):
        tracer.wrap_function(func, "equilibria.reconstruct")
    for func in (mixed.certify_mixed_profile, mixed.certify_many):
        tracer.wrap_function(func, "equilibria.certify")
    tracer.wrap_method(NumpyBackend, "screen_feasible", "linalg.screen")
    for func in (int_lp.solve_lp, int_lp.find_feasible_point):
        tracer.wrap_function(func, "linalg.lp")
    for cls in _procedures(registry.VerificationProcedure):
        tracer.wrap_method(cls, "verify", "registry.verify")
    tracer.wrap_method(AuditLog, "record", "audit.record")
    tracer.wrap_method(MessageBus, "send", "bus.send")
    tracer.wrap_method(journal.WriteBehindPersister, "flush",
                       "journal.flush", on_exit=keep_result)
    tracer.wrap_method(journal.WriteBehindPersister, "snapshot",
                       "journal.snapshot")
    tracer.wrap_method(journal.WriteBehindPersister, "recover",
                       "journal.recover")
    tracer.wrap_function(persistence.encode_journal_frame,
                         "journal.encode", on_exit=frame_bytes)


def _procedures(base) -> list:
    """Every verifier class that defines its own ``verify``."""
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "verify" in cls.__dict__ and not getattr(
            cls.__dict__["verify"], "__isabstractmethod__", False
        ):
            found.append(cls)
    return found


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(spans, window: tuple[int, int], requests,
                  tail_pct: float) -> dict[str, float]:
    """Per-layer metrics of the spans started inside ``window``.

    ``requests`` holds one ``(rid, e2e_ms, service_ms)`` triple per
    consultation completed in the window: the latency the workload
    measured end to end, and the service's own admission-to-resolution
    latency for the same request.
    """
    start, end = window
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    layer_self: dict[str, int] = {}
    submit_span: dict[object, list] = {}
    open_start: dict[object, int] = {}
    rid_spans: dict[object, list[tuple[int, int]]] = {}
    drains = flush_frames = journal_bytes = 0
    recover_ns = []
    for index, span in enumerate(spans):
        name = span[NAME]
        rid = span[RID]
        if name == "service.submit" and rid is not None:
            submit_span[rid] = span
        elif name == "session.open" and rid is not None:
            open_start.setdefault(rid, span[START])
        elif name == "journal.recover":
            recover_ns.append(span[END] - span[START])
        if rid is not None and name not in ("service.submit",
                                            "service.drain"):
            rid_spans.setdefault(rid, []).append((span[START], selfs[index]))
        if not start <= span[START] <= end:
            continue
        by_name.setdefault(name, []).append(span[END] - span[START])
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + selfs[index]
        if name == "service.drain" and span[ATTRS]:
            drains += 1
        elif name == "journal.flush" and span[ATTRS]:
            flush_frames += span[ATTRS]
        elif name == "journal.encode":
            journal_bytes += span[ATTRS] or 0

    consults = max(len(requests), 1)

    def calls(*names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def total_ms(*names) -> float:
        return _ms(sum(sum(by_name.get(n, ())) for n in names))

    def mean_ms(*names) -> float:
        count = calls(*names)
        return total_ms(*names) / count if count else 0.0

    def pct_ms(name: str, pct: float) -> float:
        values = by_name.get(name)
        return _ms(percentile(values, pct)) if values else 0.0

    # A request's blocking path: what the workload saw outside the
    # service, admission, the wait for a drain to pick it up, and the
    # self time of every span tagged with its id until it resolved.
    waits, outer, paths, e2e = [], [], [], []
    for rid, e2e_ms, service_ms in requests:
        e2e.append(e2e_ms)
        outer.append(e2e_ms - service_ms)
        submit = submit_span.get(rid)
        if submit is None or rid not in open_start:
            continue
        wait_ns = open_start[rid] - submit[END]
        waits.append(_ms(wait_ns))
        resolved = submit[START] + service_ms * 1e6
        work_ns = sum(own for began, own in rid_spans.get(rid, ())
                      if began <= resolved)
        paths.append(e2e_ms - service_ms
                     + _ms(submit[END] - submit[START] + wait_ns + work_ns))
    solve_ms = total_ms("inventor.solve")
    metrics = {
        "server.self_ms_p50": percentile(outer, 50) if outer else 0.0,
        "server.encode_ms": mean_ms("server.encode"),
        "service.admit_ms": mean_ms("service.submit"),
        "service.queue_wait_ms_p50": percentile(waits, 50) if waits else 0.0,
        "service.queue_wait_ms_tail": (
            percentile(waits, tail_pct) if waits else 0.0
        ),
        "service.drains": drains,
        "service.consults_per_drain": len(requests) / drains if drains else 0.0,
        "cache.lookups": calls("cache.lookup"),
        "cache.lookup_ms": mean_ms("cache.lookup"),
        "cache.store_ms": (
            total_ms("cache.store", "cache.hint") / calls("cache.store")
            if calls("cache.store") else 0.0
        ),
        "inventor.solve_ms_p50": pct_ms("inventor.solve", 50),
        "inventor.solve_ms_tail": pct_ms("inventor.solve", tail_pct),
        "session.advise_ms": mean_ms("session.advise"),
        "session.verify_ms": mean_ms("session.verify"),
        "session.conclude_ms": mean_ms("session.conclude"),
        "session.verify_to_solve_ratio": (
            total_ms("session.verify") / solve_ms if solve_ms else 0.0
        ),
        "registry.verifier_calls_per_consult": (
            calls("registry.verify") / consults
        ),
        "registry.verifier_ms": mean_ms("registry.verify"),
        "audit.records_per_consult": calls("audit.record") / consults,
        "audit.record_ms": mean_ms("audit.record"),
        "bus.messages_per_consult": calls("bus.send") / consults,
        "journal.flushes": calls("journal.flush"),
        "journal.flush_ms": mean_ms("journal.flush"),
        "journal.frames": flush_frames,
        "journal.bytes": journal_bytes,
        "journal.snapshot_ms": mean_ms("journal.snapshot"),
        "journal.recover_ms": (
            _ms(sum(recover_ns)) / len(recover_ns) if recover_ns else 0.0
        ),
        "trace.accounted_share": (
            percentile(paths, 50) / percentile(e2e, 50) if paths else 0.0
        ),
    }
    for name in ("equilibria.search", "equilibria.reconstruct",
                 "equilibria.certify", "linalg.screen", "linalg.lp"):
        metrics[f"{name}_calls"] = calls(name)
        metrics[f"{name}_ms"] = mean_ms(name)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_ms_per_consult"] = (
            _ms(layer_self.get(layer, 0)) / consults
        )
    return metrics
