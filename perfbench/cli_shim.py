"""Run one ``renewal_ldp.cli`` command under the benchmark's tracer.

Usage: python perfbench/cli_shim.py <output prefix> <cli arguments...>

Behaves like ``python -m renewal_ldp.cli <cli arguments...>`` and also
writes ``<prefix>.spans.jsonl`` and ``<prefix>.agg.json`` (tracer aggregates).
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import renewal_ldp.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["counters"]["cli.import_s"] = import_s
        with open(f"{prefix}.agg.json", "w") as fh:
            json.dump(snap, fh)
        tracer.write_spans(f"{prefix}.spans.jsonl", origin=" ".join(argv[:1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
