"""Boot the analysis daemon with the traced run's layer wrappers installed.

Prints the same ``listening on http://HOST:PORT`` line as ``repro serve
--port 0``.  When its standard input closes it prints every recorded
span as one JSON line and exits.  Run from the repository root with
``src`` on ``PYTHONPATH``; the benchmark starts it for the traced run of
``whatif-service``.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import layers
from spans import Recorder, installed


def main() -> None:
    from repro.service import AnalysisService
    from repro.service.http import serve

    recorder = Recorder()
    with installed(recorder, layers.targets()):
        service = AnalysisService()

        def ready(server) -> None:
            print(f"traced daemon listening on http://{server.host}:{server.port}", flush=True)

        threading.Thread(
            target=serve, args=(service,), kwargs={"port": 0, "ready": ready}, daemon=True
        ).start()
        sys.stdin.read()
        print(json.dumps(recorder.export()), flush=True)
    # The event loop thread and the service's worker threads are idle;
    # leave without waiting for them.
    os._exit(0)


if __name__ == "__main__":
    main()
