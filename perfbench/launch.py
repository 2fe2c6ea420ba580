"""Launcher stub for one CLI process of the benchmark.

    python3 perfbench/launch.py REPORT TRACE -- PIPELINE --config CFG [...]

It imports numpy and every ``qsmp`` module, parses the config with
``qsmp.config.load_config``, notes the monotonic time (the end of set-up),
then calls ``qsmp.cli.main`` with the arguments after ``--``, unchanged. The
CLI's own call to ``load_config`` receives the config parsed here, so the
process parses it once, as a plain ``python -m qsmp.cli`` run does.

With TRACE = 1 the launcher also installs the span recorder of
``perfbench/spans.py`` before parsing. When the CLI returns, it writes one
JSON report to REPORT and exits with the CLI's exit code.
"""

import sys
import time


def _config_path(argv):
    return argv[argv.index("--config") + 1]


def main():
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]

    tracer = None
    if trace:
        import builtins
        import importlib

        from spans import Tracer, instrument, instrument_coefficients

        tracer = Tracer()
        tracer.call("setup.import_numpy", importlib.import_module, ("numpy",))
        plain_import = builtins.__import__

        def timed_import(name, *args, **kwargs):
            if name.partition(".")[0] == "scipy" and name not in sys.modules:
                return tracer.call("setup.import_scipy", plain_import, (name, *args), kwargs)
            return plain_import(name, *args, **kwargs)

        builtins.__import__ = timed_import
        try:
            tracer.call("setup.import_qsmp", _import_qsmp)
        finally:
            builtins.__import__ = plain_import
        instrument(tracer)
    else:
        import numpy  # noqa: F401

        _import_qsmp()

    import qsmp.config

    load_config = qsmp.config.load_config
    path = _config_path(argv)
    if tracer is not None:
        cfg = tracer.call("config.load_config", load_config, (path,))
        instrument_coefficients(tracer, cfg)
    else:
        cfg = load_config(path)
    ready_ns = time.monotonic_ns()

    def handoff(requested):
        qsmp.config.load_config = load_config
        return cfg if requested == path else load_config(requested)

    qsmp.config.load_config = handoff
    import qsmp.cli

    code = qsmp.cli.main(argv)

    import json

    report = {"ready_ns": ready_ns, "trace": tracer.summary() if tracer is not None else None}
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    sys.exit(code)


def _import_qsmp():
    import importlib
    import pkgutil

    import qsmp

    for info in pkgutil.iter_modules(qsmp.__path__):
        importlib.import_module(f"qsmp.{info.name}")


if __name__ == "__main__":
    main()
