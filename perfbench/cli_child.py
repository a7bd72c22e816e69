"""Run one ``beltrami`` CLI command in this process with the tracer on.

Usage: python3 perfbench/cli_child.py <summary.json> <command> [args...]

The command runs through ``beltrami.cli.main(..., standalone_mode=False)``
in a fresh interpreter, like ``python -m beltrami``, so per-process caches
start cold as in the untraced run.  When it ends, the span summary goes to
<summary.json> and the spans themselves next to it as JSON lines.  The exit
code is the command's.
"""

import json
import sys

import beltrami.cli

import tracer
from workloads import exit_code


def main(argv) -> int:
    summary_path, args = argv[0], argv[1:]
    t = tracer.Tracer()
    tracer.install(t)
    t.begin_op(0)
    code = 0
    try:
        t.span("cli.main", beltrami.cli.main, None, (args,),
               {"standalone_mode": False})
    except SystemExit as exc:
        code = exit_code(exc)
    summary = tracer.summarize(t.spans, t.field_inits.get(0, 0))
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    t.dump(summary_path[:-len(".json")] + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
