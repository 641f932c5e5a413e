"""``python -m repro.server`` with the layer spans recorded.

Usage::

    python perfbench/serve_traced.py --spans-out FILE [repro.server args]

Wraps the layer boundaries (see ``layers.install``), serves exactly as
the shipped entry point does until SIGTERM, and on the way out writes
the spans, the message bus's byte total and the completed
consultation count to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import install  # noqa: E402
from spans import Tracer  # noqa: E402


def bus_bytes(bus) -> int:
    return sum(bus.bytes_sent(name) for name in bus.endpoints())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    args, server_args = parser.parse_known_args(argv)

    from repro.server import __main__ as entry

    tracer = Tracer()
    install(tracer)
    services = []
    build_server = entry.build_server

    def recording_build_server(parsed):
        server, service = build_server(parsed)
        services.append(service)
        return server, service

    entry.build_server = recording_build_server
    try:
        return entry.main(server_args)
    finally:
        entry.build_server = build_server
        tracer.restore()
        totals = {}
        if services:
            totals = {
                "bus_bytes": bus_bytes(services[0].authority.bus),
                "consults": services[0].completed_count,
            }
        tracer.dump(args.spans_out, **totals)


if __name__ == "__main__":
    sys.exit(main())
