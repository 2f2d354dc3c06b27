"""Physical storage layer: the pluggable StorageBackend seam.

Query-side code (``topk/*``, ``plans/*``, ``stats/*``) imports only from
this package root and :mod:`repro.backend.kernels`; the concrete storage
classes stay private to the package.  See DESIGN §11 for the layering and
docs/EXTENDING.md for writing a custom backend.
"""

from repro.backend.base import StorageBackend, as_backend, open_path
from repro.backend.memory import InMemoryBackend

__all__ = ["StorageBackend", "InMemoryBackend", "as_backend", "open_path"]
