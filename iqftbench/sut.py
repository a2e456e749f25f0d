"""Start ``repro-segment serve`` exactly as the CLI does, noting memory first.

Usage: ``python3 iqftbench/sut.py serve --http 127.0.0.1:0 [CLI options]``.

Before handing its arguments to :func:`repro.cli.main`, the process prints
its resident memory with the package imported (``bench-sut: pre_rss_kb=N``
on stderr).  That is the pre-setup level the benchmark subtracts from each
server process's peak.  Fleet workers are spawned interpreters that import
the same modules, so the same level stands in for theirs.
"""

import sys


def status_kb(field: str, pid="self") -> int:
    """One ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status``, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


if __name__ == "__main__":
    from repro.cli import main

    print(f"bench-sut: pre_rss_kb={status_kb('VmRSS')}", file=sys.stderr, flush=True)
    sys.exit(main(sys.argv[1:]))
