"""Run the defosc CLI with its public functions traced (traced benchmark passes only).

    PYTHONPATH=src python3 bench/cli_shim.py <defosc arguments>

Behaves like `python -m defosc.cli`: same stdout, stderr and exit code, then
one extra stderr line `@defosc-bench {"spans": [...]}` holding the spans.
"""

import json
import sys

import defosc.cli
import tracing

tracer = tracing.Tracer()
tracer.install(defosc)
code = 1
try:
    code = defosc.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(tracing.SHIM_MARKER + json.dumps({"spans": tracer.spans()}) + "\n")
sys.exit(code)
