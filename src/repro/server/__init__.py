"""The always-on front half of the framework: HTTP + write-behind disk.

:mod:`repro.server.app` serves one
:class:`~repro.service.service.AuthorityService` over stdlib-asyncio
HTTP/1.1 with a background drain pump (clients never pump the queue
themselves); :mod:`repro.server.journal` gives the server crash-grade
durability — one state file, a digest-framed journal appended at
every drain and compacted in place, replayed through the cache's
tamper-rejecting re-certification gate on restart.
"""

from repro.server.app import AuthorityHTTPServer, ThreadedServer
from repro.server.journal import (
    JOURNAL_FILENAME,
    CacheJournal,
    WriteBehindPersister,
    state_path,
)

__all__ = [
    "AuthorityHTTPServer",
    "ThreadedServer",
    "CacheJournal",
    "WriteBehindPersister",
    "state_path",
    "JOURNAL_FILENAME",
]
