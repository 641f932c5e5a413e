"""The write-behind persister lives in :mod:`repro.service.journal`;
this name stays for perfbench's tracer, which wraps it here."""

from repro.service.journal import WriteBehindPersister

__all__ = ["WriteBehindPersister"]
