"""Lazy package exports (PEP 562): a package loads a submodule on first use.

A package ``__init__`` states its public surface as one table::

    __all__, __getattr__, __dir__ = exports(__name__, {
        "perfmodel": ["Plan", "estimated_throughput"],
        "simulator": ["ClusterSimulator"],
    })

``from repro.sched import ClusterSimulator`` then imports
``repro.sched.simulator`` and nothing else of the package, so the cluster
side never pays to compile the training substrate it does not run.  A
resolved name is stored on the package, so the hook runs once per name.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Sequence, Tuple


def exports(
    package: str, table: Dict[str, Sequence[str]], own: Sequence[str] = ()
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule name to the names it exports; ``own`` lists
    the names the package body defines itself (they lead ``__all__``).
    """
    owner = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = f"{package}.{submodule}"
        __import__(module)  # not importlib: ``python -X importtime`` itemises this path
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return [*own, *owner], __getattr__, __dir__
