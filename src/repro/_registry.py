"""One generic name → object registry behind every pluggable surface.

:mod:`repro.emit` (emission formats), :mod:`repro.engines` (simulation
engines) and :mod:`repro.compiler.target` (compilation targets) each
bind one :class:`Registry` and expose thin module-level functions over
it.  Every binding gets the same semantics:

* resolution is case-insensitive and alias-aware;
* builtins load lazily, exactly once, on first registry use;
* ``overwrite=True`` evicts everything the new entry shadows and keeps
  a replaced entry's listing position;
* unknown names raise the binding's error class with the registered
  names (and their live aliases) listed.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Generic, Iterable, List, Optional, Tuple, TypeVar
)

T = TypeVar("T")


class Registry(Generic[T]):
    """Alias-aware, lazily populated, order-preserving name registry.

    Args:
        error: exception class raised for every registry failure.
        noun: what one entry is called in messages
            (``"emission format"`` → ``"unknown emission format 'x'"``).
        plural: the listing noun (``"formats"`` →
            ``"registered formats: ..."``).
        protocol: the protocol's class name, used in interface errors.
        required: attributes :meth:`register` insists on.
        passthrough: attributes that let :meth:`get` return a
            non-string spec unchanged.
        expected: how :meth:`get` names a valid string spec in its
            type error (``"a format name"``).
        builtins: optional loader returning the builtin entries; it
            runs once, before the first lookup or registration.
    """

    def __init__(
        self,
        *,
        error: Callable[[str], Exception],
        noun: str,
        plural: str,
        protocol: str,
        required: Tuple[str, ...],
        passthrough: Tuple[str, ...],
        expected: str,
        builtins: Optional[Callable[[], Iterable[T]]] = None,
    ):
        self._error = error
        self._noun = noun
        self._plural = plural
        self._protocol = protocol
        self._required = required
        self._passthrough = passthrough
        self._expected = expected
        self._builtins = builtins
        self._entries: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}
        self._order: List[str] = []

    def _ensure_builtins(self) -> None:
        """Register the builtin entries exactly once."""
        loader, self._builtins = self._builtins, None
        if loader is not None:
            for entry in loader():
                self.register(entry)

    def register(self, entry: T, overwrite: bool = False) -> T:
        """Register ``entry`` under its canonical name and aliases.

        Args:
            entry: the object to register; it must carry every
                ``required`` attribute, ``aliases`` is optional.
            overwrite: evict colliding names/aliases instead of raising.

        Returns:
            The registered entry.

        Raises:
            The binding's error: for a missing attribute, or a name or
            alias collision without ``overwrite``.
        """
        for attr in self._required:
            if not hasattr(entry, attr):
                raise self._error(
                    f"{self._protocol.lower()} {entry!r} does not satisfy "
                    f"the {self._protocol} protocol: missing {attr!r}"
                )
        self._ensure_builtins()
        spelled = (entry.name, *getattr(entry, "aliases", ()))
        keys = tuple(key.lower() for key in spelled)
        name, aliases = keys[0], keys[1:]
        taken = [
            shown for shown, key in zip(spelled, keys)
            if key in self._entries or key in self._aliases
        ]
        if taken and not overwrite:
            raise self._error(
                f"{self._noun} {taken[0]!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        # evict everything the new registration shadows: entries whose
        # canonical name collides with one of our keys, aliases colliding
        # with our keys, and the replaced entry's own old aliases
        predecessors = (
            set(self._order[: self._order.index(name)])
            if name in self._entries else None
        )
        for key in keys:
            if key in self._entries:
                self.unregister(key)
            self._aliases.pop(key, None)
        for alias, canonical in list(self._aliases.items()):
            if canonical == name:
                del self._aliases[alias]
        self._entries[name] = entry
        if predecessors is not None:
            # keep the replaced entry's listing position relative to
            # the entries that survived the evictions
            index = sum(1 for key in self._order if key in predecessors)
            self._order.insert(index, name)
        else:
            self._order.append(name)
        for alias in aliases:
            self._aliases[alias] = name
        return entry

    def unregister(self, name: str) -> T:
        """Remove the entry registered under canonical ``name``.

        Args:
            name: the canonical name (not an alias).

        Returns:
            The removed entry.

        Raises:
            The binding's error: when nothing is registered as ``name``.
        """
        self._ensure_builtins()
        key = name.lower()
        if key not in self._entries:
            raise self._unknown(name)
        entry = self._entries.pop(key)
        self._order.remove(key)
        for alias, canonical in list(self._aliases.items()):
            if canonical == key:
                del self._aliases[alias]
        return entry

    def get(self, spec) -> T:
        """Resolve a name or alias (or pass a protocol object through).

        Args:
            spec: a registered name or alias (case-insensitive), or an
                object carrying every ``passthrough`` attribute.

        Returns:
            The resolved entry.

        Raises:
            The binding's error: for unknown names (the message lists
            the registered ones) or specs of the wrong type.
        """
        if not isinstance(spec, str):
            if all(hasattr(spec, attr) for attr in self._passthrough):
                return spec
            raise self._error(
                f"expected {self._expected} or {self._protocol}, got "
                f"{type(spec).__name__}"
            )
        self._ensure_builtins()
        key = spec.lower()
        entry = self._entries.get(self._aliases.get(key, key))
        if entry is None:
            raise self._unknown(spec)
        return entry

    def names(self) -> Tuple[str, ...]:
        """Return the canonical names in listing order."""
        self._ensure_builtins()
        return tuple(self._order)

    def describe(self) -> str:
        """Return ``"name (aka alias, ...), other, ..."`` for messages."""
        parts = []
        for name in self.names():
            # the live alias map, not the entries' static declarations:
            # overwrite registrations may have reassigned an alias
            aliases = [a for a, c in self._aliases.items() if c == name]
            parts.append(
                f"{name} (aka {', '.join(aliases)})" if aliases else name
            )
        return ", ".join(parts)

    def _unknown(self, spec) -> Exception:
        """The error for a name nothing is registered under."""
        return self._error(
            f"unknown {self._noun} {spec!r}; registered {self._plural}: "
            f"{self.describe()}"
        )
