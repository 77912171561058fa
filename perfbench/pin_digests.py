#!/usr/bin/env python3
"""Pin the stdout SHA-256 of every fixed benchmark command, for each size.

    python3 perfbench/pin_digests.py

Default reports are byte-identical from run to run, so these digests are
the benchmark's output oracle.  Run this only on a commit whose reports are
trusted; a change that alters any pinned report fails the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    cli = run.import_econvex()
    pins = {}
    for size in workloads.SIZES:
        pins[size] = {}
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 0, size)
            with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
                wl.write(Path(tmp))
                for cmd in wl.commands:
                    if cmd.seeded:
                        continue
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(cmd.resolved(Path(tmp)))
                    if code != 0:
                        raise SystemExit(f"{size} {cmd.key}: exit code {code}")
                    pins[size][cmd.key] = workloads.digest(out.getvalue())
                    print(size, cmd.key, pins[size][cmd.key], flush=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
