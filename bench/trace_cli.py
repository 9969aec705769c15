"""Run one ``jumptime`` CLI command with the benchmark tracer installed.

Usage: python bench/trace_cli.py SPANS_JSON -- CLI_ARGS...

Times the import of ``jumptime.cli``, wraps the traced functions, runs the
command through ``jumptime.cli.main`` and writes the span totals to
SPANS_JSON when the command ends, whatever its exit status.
"""

import sys
from time import perf_counter


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON -- CLI_ARGS...")
    start = perf_counter()
    import jumptime.cli as cli

    import_s = perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    status = 3
    try:
        status = cli.main(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.dump(spans_path, import_s=import_s)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
