"""Run the ``repro`` CLI as ``python -m repro`` would, for the benchmark.

    python3 perfbench/launch.py [--hooks-out FILE] <repro arguments ...>

``--procs`` workers are started with the spawn method, which re-imports
this file in every worker, so the wrapper below is in place there too:
it prints ``WORKER_READY`` on stderr once a worker's initializer has
loaded the store.  That line ends ``setup_s`` for ``batch-procs``.

With ``--hooks-out`` (the traced run only) the layer wrappers of
``hooks.py`` are installed in this process; the program's own
``--trace-out`` flag writes the spans, and the timer and counter dump
goes to FILE when the command returns.  Workers keep only the
program's own spans.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

WORKER_READY = "perfbench: worker ready"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.parallel import _worker  # noqa: E402


def _announce(init):
    @functools.wraps(init)
    def wrapper(*args, **kwargs):
        init(*args, **kwargs)
        print(WORKER_READY, file=sys.stderr, flush=True)

    return wrapper


_worker.init_classify_worker = _announce(_worker.init_classify_worker)


def main() -> int:
    argv = sys.argv[1:]
    hooks = None
    if argv[:1] == ["--hooks-out"]:
        hooks_out, argv = argv[1], argv[2:]
        import hooks as hooks_module

        hooks = hooks_module.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if hooks is not None:
            hooks.dump(hooks_out)


if __name__ == "__main__":
    sys.exit(main())
