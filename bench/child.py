"""One benchmark run in a fresh interpreter: start geoverify, run commands, report.

Usage: python3 bench/child.py REPORT_JSON TRACE COMMANDS_JSON

Run from the checkout root with ``src`` on PYTHONPATH.  The set-up mark is
taken on CLOCK_MONOTONIC, which the parent shares, as soon as
``geoverify.cli`` is imported and ``build_parser()`` has returned; nothing
of the benchmark is imported before it.  The exit code is 0 only when every
command returned 0; with no commands the child only measures set-up.
"""

import sys
import time


def main(cli, setup_done: float) -> int:
    import json

    report_path, trace, commands = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    recorder = None
    if trace:
        import tracer

        recorder = tracer.install()
    codes = []
    for argv in commands:
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        codes.append(code)
        if code:
            break
    report = {"setup_done": setup_done, "codes": codes}
    if recorder is not None:
        report["spans"] = recorder.spans
        report["threads_started"] = recorder.threads_started
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 1 if any(codes) else 0


if __name__ == "__main__":
    from geoverify import cli

    cli.build_parser()
    sys.exit(main(cli, time.monotonic()))
