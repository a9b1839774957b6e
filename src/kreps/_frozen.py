"""Value semantics for the package's immutable record classes, the ones a
frozen dataclass has, without loading ``dataclasses``."""


class Frozen:
    """Base of a ``__slots__`` class whose slots are its fields, in order.

    Its ``__init__`` sets the fields with ``object.__setattr__``.  An
    instance compares and hashes by the tuple of its fields, prints as
    ``Name(field=value, ...)``, copies and pickles through the constructor,
    and refuses assignment and deletion with AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
