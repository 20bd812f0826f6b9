"""Traced stand-in for the `thermocap` console script, used by `cli_cold`.

    python3 bench/launch.py SPANS.json <thermocap arguments...>

Times `import thermocap.cli`, installs the benchmark's wrappers, runs
`thermocap.cli.main` on the arguments and writes the spans to SPANS.json.
Stdout and the exit code are the CLI's own.
"""
import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import thermocap.cli  # noqa: E402  (timed: this is the cold-start cost)

imported = time.perf_counter()

import tracing  # noqa: E402  (bench/ is sys.path[0])

tracer = tracing.Tracer()
tracer.op = 0
tracer.add("cli.import", start, imported, -1)
tracer.install()
try:
    code = thermocap.cli.main(sys.argv[2:])
finally:
    Path(sys.argv[1]).write_text(json.dumps(tracer.spans))
sys.exit(code)
