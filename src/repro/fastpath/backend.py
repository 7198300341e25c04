"""Kernel-tier selection for the fastpath: python / vectorized.

The fastpath kernels come in two tiers sharing one contract
(bit-identical results, see ``tests/test_fastpath.py``):

* ``"python"`` — the original pure-Python kernels over CSR lists and
  big-int bitmasks (:mod:`repro.fastpath.kernels`). Always available;
  the oracle the other tiers are validated against.
* ``"vectorized"`` — numpy ports over packed ``uint64`` bitset arrays
  (:mod:`repro.fastpath.vectorized` / :mod:`repro.fastpath.packed`).
  Requires numpy; silently degrades to ``"python"`` without it.

Selection flows through one resolver, :func:`resolve_backend`:
an explicit ``backend=`` argument (the ``compile=``-style kwarg on
:class:`~repro.core.bbe.MSCE`, :func:`~repro.core.parallel.enumerate_parallel`,
the serving engine, the kernel entry points) wins over the
``REPRO_BACKEND`` environment variable, which wins over the default
(``"vectorized"`` when numpy is importable, ``"python"`` otherwise).
The resolved name is what parent processes ship to workers, so a
parallel run always uses one consistent tier regardless of worker-side
environment.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.exceptions import ParameterError

#: The two tier names, in ascending order of expected speed.
BACKEND_PYTHON = "python"
BACKEND_VECTORIZED = "vectorized"

BACKENDS: Tuple[str, ...] = (BACKEND_PYTHON, BACKEND_VECTORIZED)

#: Environment variable naming the default backend for the process.
BACKEND_ENV = "REPRO_BACKEND"

try:  # numpy is an optional accelerator, never a hard dependency.
    import numpy as _np  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - the CI image ships numpy
    HAS_NUMPY = False


def default_backend() -> str:
    """The process default: vectorized when numpy is importable."""
    return BACKEND_VECTORIZED if HAS_NUMPY else BACKEND_PYTHON


def available_backends() -> Tuple[str, ...]:
    """The tiers that would actually run (after degradation) here."""
    tiers = [BACKEND_PYTHON]
    if HAS_NUMPY:
        tiers.append(BACKEND_VECTORIZED)
    return tuple(tiers)


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend request to the tier that will actually run.

    Precedence: explicit *backend* argument > ``REPRO_BACKEND`` env >
    :func:`default_backend`. Unknown names raise
    :class:`~repro.exceptions.ParameterError`; ``"vectorized"`` degrades
    silently to ``"python"`` when numpy is missing, so requesting it is
    always safe.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip() or default_backend()
    if backend not in BACKENDS:
        raise ParameterError(
            f"unknown kernel backend {backend!r}; expected one of {list(BACKENDS)}"
        )
    if backend == BACKEND_VECTORIZED and not HAS_NUMPY:
        backend = BACKEND_PYTHON
    return backend
