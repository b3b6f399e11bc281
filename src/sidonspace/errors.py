"""Exception types, the budget gate and the checks on integers read from JSON, shared across the package."""


class ConstructionError(RuntimeError):
    """A construction's preconditions failed or a claimed property did not re-verify."""


class NoSuchElementError(LookupError):
    """A seeded element search was exhausted or the constraint is provably unsatisfiable."""


class BudgetError(RuntimeError):
    """An enumeration would exceed the caller's budget.

    Carries the number of items the enumeration would need in ``required``.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


def within_budget(required: int, budget: int, what: str) -> int:
    """``required`` itself if it is at most ``budget``, else BudgetError carrying it."""
    if required > budget:
        raise BudgetError(f"{required} {what} exceed the budget {budget}", required=required)
    return required


class SupplyError(ConstructionError):
    """Not enough objects exist to satisfy a request (e.g. irreducible polynomials).

    ``available`` holds the number of objects that do exist.
    """

    def __init__(self, message: str, available: int | None = None):
        super().__init__(message)
        self.available = available


def int_list(values, what: str) -> list:
    """``values`` itself if it is a list of integers, else ValueError.

    Lists read from JSON pass through here before int() or numpy sees them:
    int() truncates floats and takes bools, numpy fails on dicts and on
    integers beyond int64.
    """
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError(f"{what} must be a list of integers")
    return values


def int_scalar(value, what: str) -> int:
    """``value`` itself if it is an integer, else ValueError (see :func:`int_list`)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer")
    return value
