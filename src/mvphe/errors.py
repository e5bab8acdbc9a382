"""Exception types shared across the library."""


class KeyGenError(RuntimeError):
    """Key generation failed; ``reason`` names the violated condition."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        msg = reason if not detail else f"{reason}: {detail}"
        super().__init__(msg)


class ParameterInfeasibleError(KeyGenError):
    """No admissible plaintext scale p exists for the parameter set."""


class UnsupportedOperationError(RuntimeError):
    """Operation not available for this key mode."""


class DepthError(RuntimeError):
    """Homomorphic multiplication depth budget exceeded."""


class ProtocolViolationError(RuntimeError):
    """A game oracle was used outside its protocol (e.g. second challenge)."""


class FileFormatError(ValueError):
    """A serialized artifact failed validation; ``field`` names the culprit."""

    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"invalid field '{field}'" + (f": {detail}" if detail else "")
        super().__init__(msg)
