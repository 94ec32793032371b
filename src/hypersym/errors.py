"""Exception types shared across the package."""


class HypersymError(Exception):
    """Base class for all package errors."""


class ParseError(HypersymError):
    """Raised on malformed expression text; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownNameError(HypersymError):
    """An identifier is not registered in the context."""


class DivisionByZeroError(HypersymError):
    """Division by an expression whose normal form is zero."""


class NotInvertibleError(HypersymError):
    """Division by a zero divisor of the algebraic tower."""


class CyclicBindingError(HypersymError):
    """Substitution bindings form a cycle across distinct names."""


class SizeLimitError(HypersymError):
    """A normal form exceeded the configured term budget."""


class JetOrderError(HypersymError):
    """A total derivative or swap stepped outside the registered jet range."""


class AdmissibilityError(HypersymError):
    """Parameter binding violates a catalog entry's admissibility condition,
    or makes the relation of a symbol in use reducible."""


class UnknownEntryError(HypersymError):
    """Catalog lookup for an id that does not exist."""


class CatalogError(HypersymError):
    """Malformed catalog data file or pairing line."""


class RoleError(HypersymError):
    """An entry given where an entry of the other role is needed."""


class LemmaPremiseError(HypersymError):
    """dG/du_4 is not of the form 5*u_2*g(u_1)."""


class TransformError(HypersymError):
    """Malformed transform definition, or an unknown transform or convention."""


class SampleError(HypersymError):
    """Numeric sampling could not satisfy the constraints."""


class EvalError(HypersymError):
    """Numeric evaluation produced a non-finite value."""
