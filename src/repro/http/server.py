"""The public import path of :class:`RestServer`.

The server itself is the event loop in :mod:`repro.http.eventloop`.
"""

from repro.http.eventloop import RestServer

__all__ = ["RestServer"]
