"""numpy, imported on first use.

A module that computes with numpy binds ``np = LazyNumpy(globals())``
instead of importing it.  The first attribute lookup on the stand-in
imports numpy and writes the module into that global, so from then on the
module's code looks up the real numpy as a plain global; a command that
never computes with numpy never imports it.
"""

from __future__ import annotations


class LazyNumpy:
    """Stand-in for numpy in one module's globals until its first use."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
