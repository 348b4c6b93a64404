"""One name table for every plug-in kind.

Scheduler policies, adversarial scenarios, arrival processes, load
balancers, DVFS operating points and workload profiles are each looked up
by a stable name that doubles as a :class:`~repro.exp.RunRequest` cache-key
string.  A :class:`Catalog` holds one such kind: it rejects duplicate
names, raises the owning package's own error class on an unknown name
(listing what is registered), and lists entries in name order.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Tuple, Type, TypeVar

__all__ = ["Catalog"]

T = TypeVar("T")


class Catalog(Generic[T]):
    """Named entries of one plug-in kind; ``kind`` labels error messages."""

    def __init__(self, kind: str, error: Type[Exception]) -> None:
        self.kind = kind
        self.error = error
        self._entries: Dict[str, T] = {}

    def add(self, name: str, entry: T) -> T:
        """Register ``entry`` under ``name`` and return it."""
        if name in self._entries:
            raise self.error(f"duplicate {self.kind} {name!r}")
        self._entries[name] = entry
        return entry

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator form of :meth:`add`."""
        return lambda entry: self.add(name, entry)

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; "
                f"registered: {', '.join(self.names())}") from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, T]]:
        return [(name, self._entries[name]) for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries
