"""Hash every artifact of the shipped configs, to compare two checkouts.

    python3 tools/artifact_hashes.py CHECKOUT OUT

Runs each config in ``CHECKOUT/configs`` through its pipeline at ``--seed 1``,
each in a fresh process with ``CHECKOUT/src`` on ``PYTHONPATH``, into a
temporary directory, and writes one ``sha256  config/file`` line per artifact
to OUT, sorted by config and file. Each pipeline's peak resident set size,
its user + system CPU time, its system time and its minor page faults go to
stderr, one ``config pipeline MB s sys_s minflt`` line each, so OUT holds
hashes only. All come from ``os.wait4`` on the pipeline's process:
``ru_maxrss`` is the largest over that process and the processes it forked
and reaped (a check's workers, a sweep's partner), and the times and faults
are their sums. Each pipeline runs in a session of its own, and no process
of that session may outlive it: one that does (a worker or partner the
pipeline failed to reap) is killed, and the tool exits non-zero, naming the
config. Two checkouts are byte-identical on the shipped configs when
``diff`` of their two files is empty:

    python3 tools/artifact_hashes.py . before.txt   # at the parent commit
    python3 tools/artifact_hashes.py . after.txt    # with the change
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import tempfile

#: Shipped config stem -> the CLI pipeline that runs it.
PIPELINES = {
    "exp_utility_gradient_check": "gradient-check",
    "exp_utility_solve": "solve",
    "inline_quadratic": "solve",
    "lq_descend": "descend",
    "lq_mp_check": "mp-check",
    "tanh_adjoint": "adjoint",
    "tanh_bmo": "bmo",
    "tanh_constants": "constants",
}
#: Exit codes after which every artifact is written: success, inconclusive check.
_WRITTEN = (0, 3)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _run(cmd: list, env: dict, cwd: str) -> tuple:
    """(exit code, peak RSS in MB, user + system CPU seconds, system seconds,
    minor page faults, whether a process of its session outlived it) of one
    child process and the processes it reaped; ``os.wait4`` reaps the child,
    so the usage is not that of every child of this process. A process left
    in the child's session is killed."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, start_new_session=True)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, 0)  # the session's process group has the child's pid as its id
    except ProcessLookupError:
        left = False
    else:
        os.killpg(proc.pid, signal.SIGKILL)
        left = True
    peak_rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    return proc.returncode, peak_rss_mb, usage.ru_utime + usage.ru_stime, usage.ru_stime, usage.ru_minflt, left


def artifact_lines(checkout: str) -> list:
    checkout = os.path.abspath(checkout)
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for config, pipeline in sorted(PIPELINES.items()):
            out_dir = os.path.join(work, config)
            cmd = [
                sys.executable, "-m", "qsmp.cli", pipeline,
                "--config", os.path.join(checkout, "configs", f"{config}.cfg"),
                "--seed", "1", "--out", out_dir,
            ]
            code, peak_rss_mb, cpu_s, sys_s, minflt, left = _run(cmd, env, checkout)
            print(f"{config} {pipeline} {peak_rss_mb:.1f} MB {cpu_s:.2f} s {sys_s:.2f} sys_s {minflt} minflt", file=sys.stderr)
            if left:
                raise SystemExit(f"{config}: `{pipeline}` left a process behind")
            if code not in _WRITTEN:
                raise SystemExit(f"{config}: `{pipeline}` exited with code {code}")
            for name in sorted(os.listdir(out_dir)):
                lines.append(f"{_sha256(os.path.join(out_dir, name))}  {config}/{name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of a qsmp checkout")
    parser.add_argument("out", help="file to write the hash lines to")
    args = parser.parse_args(argv)
    lines = artifact_lines(args.checkout)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
