"""Runs a geoverify command in a child of this small process and bounds the child's peak RSS.

A child's ru_maxrss starts at its spawning parent's high-water RSS, so this
parent imports no numpy: the child's own peak shows.

    python3 .github/child_rss.py LABEL MAX_MIB ARG...

runs ``python -m geoverify.cli ARG...``.  An ARG ``@FILE`` stands for the
arguments in FILE, a JSON list; a flag given after it overrides the file's
value, since argparse keeps an option's last value.  It prints the child's
exit code, CPU times, minor faults and peak RSS, and exits with the child's
code, or with an error when the peak is not below MAX_MIB ("inf" bounds
nothing).

    python3 .github/child_rss.py --out FILE

prints the ``--out`` value of the command in FILE.
"""

import json
import os
import subprocess
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if argv[0] == "--out":
        cmd = load(argv[1])
        print(cmd[cmd.index("--out") + 1])
        return None
    label, bound = argv[0], float(argv[1])
    args = [a for arg in argv[2:] for a in (load(arg[1:]) if arg.startswith("@") else [arg])]
    child = subprocess.Popen([sys.executable, "-m", "geoverify.cli"] + args)
    _, status, usage = os.wait4(child.pid, 0)
    code, rss = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{label} child: exit {code}, user {usage.ru_utime:.2f} s, sys {usage.ru_stime:.2f} s, "
          f"{usage.ru_minflt} minor faults, {rss:.1f} MiB peak RSS")
    return code or (None if rss < bound else f"peak RSS {rss:.1f} MiB is not below {bound:g} MiB")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
