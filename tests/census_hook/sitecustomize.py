"""Reachability-census hook (see ``tests/test_census.py``).

Python imports a ``sitecustomize`` found on ``sys.path`` at start-up, so
putting this directory on ``PYTHONPATH`` instruments every interpreter an
entry point starts — the CLI subprocess, a ``spawn`` pool child — without
touching ``src/``.  Forked pool children inherit the profile function.

With ``CENSUS_OUT`` unset this file does nothing.  With it set,
every function first entered whose code lives under ``CENSUS_SRC``
appends one ``<file>\t<first line>`` record to ``<out>/<pid>.tsv`` — at
entry, not at exit, because pool children leave through ``os._exit``.
"""

import os
import sys
import threading

_OUT = os.environ.get("CENSUS_OUT")
_SRC = os.environ.get("CENSUS_SRC", "")

if _OUT and _SRC:
    _seen = set()

    def _hook(frame, event, arg, _seen=_seen):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                if code.co_filename.startswith(_SRC):
                    path = os.path.join(_OUT, f"{os.getpid()}.tsv")
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(f"{code.co_filename}\t{code.co_firstlineno}\n")

    threading.setprofile(_hook)
    sys.setprofile(_hook)
