"""Package namespaces that load a submodule only when one of its names is used.

Every ``repro`` package ``__init__`` re-exports the public names of its
submodules.  Importing them all up front would make ``import
repro.network.topology`` pay for the simulator, and ``from repro.faults
import FaultInjector`` for the farm; instead each ``__init__`` declares
where its names live and installs the module ``__getattr__`` /
``__dir__`` pair (PEP 562) that :func:`lazy_exports` builds::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "topology": ("mesh", "ring"),
        "noc": ("Noc",),
    })

``from repro.network import mesh``, ``repro.network.mesh``, ``from
repro.network import *``, ``dir(repro.network)`` and
``repro.network.noc`` (a declared submodule) then work as before; the
first use of a name imports its submodule and caches the value in the
package namespace, so later uses never reach ``__getattr__``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``exports``: submodule name -> the names it provides,
    ``__all__`` in that order."""
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def load(module: str) -> Any:
        # ``__import__``, not ``importlib.import_module``: only the import
        # statement's path is timed by ``-X importtime`` and audited.
        __import__(f"{package}.{module}")
        return sys.modules[f"{package}.{module}"]

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = namespace[name] = getattr(load(module), name)
            return value
        if name in exports:
            return load(name)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home) | set(exports))

    return __getattr__, __dir__, list(home)
