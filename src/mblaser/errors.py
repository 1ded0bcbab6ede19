"""Exception types shared across the package, and the size cap behind
`CapacityError`."""


class MBLaserError(Exception):
    """Base class for package errors."""


class ValidationError(MBLaserError):
    """Bad user input: config schema, parameter domain, CLI arguments."""


class NumericsError(MBLaserError):
    """A numerical procedure failed to converge or left its validity domain."""


class ChartBoundaryError(NumericsError):
    """Reduced (Hopf) coordinates hit the |z| = 1/2 chart boundary."""


class CapacityError(MBLaserError):
    """Requested problem size exceeds a hard cap (e.g. dense eigensolve)."""


#: largest allocation one request may ask for, in bytes
MEMORY_CAP_BYTES = 8 * 2 ** 30


def require_capacity(n_bytes: float, what: str) -> None:
    """Raise CapacityError, before allocating, if ``what`` is estimated to
    need more than MEMORY_CAP_BYTES."""
    if n_bytes > MEMORY_CAP_BYTES:
        raise CapacityError(f"{what} needs {n_bytes / 2 ** 30:.3g} GiB, above the "
                            f"{MEMORY_CAP_BYTES / 2 ** 30:g} GiB cap")
