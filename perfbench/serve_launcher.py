"""Start ``repro serve`` with the benchmark's span recorder installed.

::

    python3 perfbench/serve_launcher.py --store DIR --spans-out FILE

The traced half of the ``serve-closed`` workload runs its server from
here instead of ``python -m repro serve``: the layer entry points are
wrapped (``tracing.install``) before ``ReproServer`` is constructed, so
the server process records its spans.  On SIGINT the server closes and
the spans, plus each job's submit and ``JobStarted`` times, are written
to ``--spans-out``.  Pool workers restore the unwrapped functions after
fork, so worker-side W time is not traced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workload import Events, ServeClosed, record_submits  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    events = Events(tracer)
    installed = [tracing.install(tracer), record_submits(events, tee=True)]
    from repro.serve import ReproServer, ServeConfig

    server = ReproServer(
        ServeConfig(port=0, n_workers=ServeClosed.WORKERS, store_dir=args.store)
    )
    print(f"repro-serve listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        for item in reversed(installed):
            item.uninstall()
    blob = tracer.to_dict()
    blob["started"] = {str(k): v for k, v in events.started.items()}
    blob["submitted"] = {str(k): v for k, v in events.submitted.items()}
    with open(args.spans_out, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
