"""Run the icotile CLI with spans around its public functions.

Usage: python3 child_cli.py SPAN_FILE [CLI ARGS ...]

Behaves like `python -m icotile.cli CLI ARGS` (same output and exit code)
and writes the spans it recorded to SPAN_FILE as JSON lines.
"""

import sys

import spans


def main(span_file: str, args: list[str]) -> None:
    tracer = spans.Tracer()
    i = tracer.begin("cli.import")
    import icotile.cli

    tracer.end(i)
    spans.instrument(tracer)
    i = tracer.begin("cli.main")
    try:
        icotile.cli.main(args=args, prog_name="python -m icotile.cli")
    finally:
        tracer.end(i)
        tracer.dump(span_file)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
