"""Exception types shared across the package, and the memory check that
raises MemoryError before an allocation the machine cannot hold."""

import os


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class GridError(RuntimeError):
    """Spectral grid cannot faithfully represent the requested state or evolution."""


class FitError(RuntimeError):
    """Dispersion-curve fit cannot be performed on the given series."""


def require_memory(nbytes: int) -> None:
    """Raise MemoryError when ``nbytes``, the bytes a step is about to hold
    at once, exceed the physical memory, where the platform reports it.
    Called before the allocation, so that a request the machine cannot hold
    is never made."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return
    if nbytes > physical:
        raise MemoryError(f"{nbytes} bytes exceed the {physical} bytes of physical memory")
