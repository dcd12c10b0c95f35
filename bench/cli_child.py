"""Run one bellgate CLI command under the benchmark's tracing.

    python3 bench/cli_child.py spans|ops OUT -- CLI-ARGS...

Installs the span tracer (or the ExactScalar op counter), runs
``bellgate.cli.main``, passes its output through, writes what was recorded
to OUT as JSON and exits with the command's exit code.
"""

import io
import json
import sys

import tracing


def main() -> int:
    mode, out, separator, *argv = sys.argv[1:]
    if mode not in ("spans", "ops") or separator != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import bellgate.cli
    import bellgate.scalar
    probe = tracing.Tracer() if mode == "spans" else \
        tracing.OpCounter(bellgate.scalar.ExactScalar)
    real_stdout = sys.stdout
    sys.stdout = captured = io.StringIO()
    try:
        with probe:
            code = bellgate.cli.main(argv)
    finally:
        sys.stdout = real_stdout
    report = captured.getvalue()
    sys.stdout.write(report)
    if mode == "spans":
        blob = probe.dump()
    else:
        blob = {"ops": sum(probe.ops.values()), "max_bits": probe.max_bits}
    blob["report_bytes"] = len(report.encode())
    with open(out, "w") as handle:
        json.dump(blob, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
