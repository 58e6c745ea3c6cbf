"""Exception hierarchy with stable machine-readable codes."""


class StringAlgebraError(Exception):
    code = "error"

    def as_dict(self):
        return {"code": self.code, "message": str(self)}


class PresentationSyntaxError(StringAlgebraError):
    code = "syntax"

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        msg = super().__str__()
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", column {self.column}"
            return f"{loc}: {msg}"
        return msg


class UnknownLabelError(StringAlgebraError):
    code = "unknown-label"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class CompositionError(StringAlgebraError):
    code = "not-composable"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NotAStringError(StringAlgebraError):
    code = "not-a-string"


class BandFoundError(StringAlgebraError):
    code = "band-found"


class InfiniteDimensionalError(StringAlgebraError):
    code = "infinite-dimensional"


class IsProjectiveError(StringAlgebraError):
    code = "is-projective"


class IsInjectiveError(StringAlgebraError):
    code = "is-injective"


class NotIrreducibleError(StringAlgebraError):
    code = "not-irreducible"


class MeshInconsistencyError(StringAlgebraError):
    # signals an implementation bug, never expected data
    code = "mesh-inconsistency"


class WitnessConstructionError(StringAlgebraError):
    code = "witness-construction"


class NotStringAlgebraError(StringAlgebraError):
    code = "not-string-algebra"

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition  # the failing presentation.ConditionReport
