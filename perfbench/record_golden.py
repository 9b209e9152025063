"""Record golden outputs for every command of every workload pool.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: per command, the stdout digest (or, for
``verify``, the (suite, status, checks) tuples), the number of work units
the command produces (ideals listed, poset nodes, suite checks; none for
the type-A oracle) and the wall time of this recording, which is what the
strata of ``workloads.py`` were balanced on.  Record only on a commit whose
outputs are known to be right: the benchmark gate trusts this file.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def units(argv: list[str], stdout: bytes) -> int | None:
    text = stdout.decode()
    if argv[0] == "verify":
        return sum(c for _, _, c in run.parse_suites(stdout))
    if argv[0] == "oracle-typea":
        return None
    if argv[0] == "poset":
        if "json" in argv:
            return len(json.loads(text)["nodes"])
        return sum(1 for line in text.splitlines() if "[label=" in line)
    if "--json" in argv:
        return len(json.loads(text))
    return len(text.splitlines())


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.pool(name):
            o = run.run_command(argv)
            if o.returncode != 0 or o.timed_out:
                print(f"borbits {run.command_key(argv)} failed: {o.stderr.decode()}", file=sys.stderr)
                return 1
            entry = {"units": units(argv, o.stdout), "cost_s": round(o.wall_s, 2)}
            if argv[0] == "verify":
                entry["suites"] = run.parse_suites(o.stdout)
            else:
                entry["sha256"] = hashlib.sha256(o.stdout).hexdigest()
            golden[run.command_key(argv)] = entry
            print(f"{o.wall_s:7.2f}s  {entry['units']}  borbits {run.command_key(argv)}", flush=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
