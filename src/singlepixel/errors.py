"""Exception types shared across the toolkit."""

from pathlib import Path


class SinglePixelError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SinglePixelError, ValueError):
    """Grids or vectors have incompatible shapes."""


class ParameterError(SinglePixelError, ValueError):
    """A scalar parameter or construction argument is out of range."""


class DegenerateInputError(SinglePixelError, ValueError):
    """Input is structurally valid but degenerate (e.g. all-zero image)."""


class InvalidFieldError(SinglePixelError, ValueError):
    """A field contains non-finite values."""


class ConsistencyError(SinglePixelError, ValueError):
    """Two inputs that must describe the same experiment disagree."""


class FormatError(SinglePixelError, ValueError):
    """A file does not conform to its on-disk format."""


class NumericalError(SinglePixelError, RuntimeError):
    """An iterative computation produced non-finite values or diverged."""

    def __init__(self, message: str, stage: str | None = None, iteration: int | None = None):
        self.message = message  # undecorated, so a caller can add the iteration
        if stage is not None:
            message = f"{message} (stage: {stage})"
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.stage = stage
        self.iteration = iteration


def read_text(path) -> str:
    """Contents of a UTF-8 text file; bytes that are not UTF-8 raise FormatError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        bad = data[err.start]
        raise FormatError(f"{path} is not UTF-8 text: byte {err.start} is {bad:#04x}") from None
