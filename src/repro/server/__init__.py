"""The always-on front half of the framework: HTTP over a service.

:mod:`repro.server.app` serves one
:class:`~repro.service.service.AuthorityService` over stdlib-asyncio
HTTP/1.1 with a background drain pump (clients never pump the queue
themselves).  Durability belongs to the service:
``AuthorityService(state_dir=)`` owns the write-behind journal
(:mod:`repro.service.journal`); the server flushes it on a timer,
compacts it on ``POST /admin/snapshot`` and reports it under ``/stats``.
"""

from repro.server.app import AuthorityHTTPServer, ThreadedServer

__all__ = [
    "AuthorityHTTPServer",
    "ThreadedServer",
]
