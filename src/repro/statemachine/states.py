"""Hierarchical states.

States form a tree: :class:`State` leaves and compound states with a
designated initial child.  The *configuration* of a machine is the path of
active states from the root to one leaf (single-region statecharts — the
TV control models in the paper are modelled this way; orthogonal features
like the sleep timer are handled as machine variables rather than parallel
regions, which keeps run-time comparison cheap, an explicit goal of
Sect. 4.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

ActionFn = Callable[..., None]


class State:
    """One node in the state tree.

    The tree is append-only (states attach to their parent at
    construction and never re-parent), so ``path()``/``full_name()`` are
    cached lazily — ``full_name()`` sits on the expected-value hot path
    of every comparator tick via ``Machine.configuration()``.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["State"] = None,
        on_entry: Optional[ActionFn] = None,
        on_exit: Optional[ActionFn] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.children: Dict[str, "State"] = {}
        self.initial: Optional["State"] = None
        self.on_entry = on_entry
        self.on_exit = on_exit
        self._path: Optional[Tuple["State", ...]] = None
        self._full_name: Optional[str] = None
        if parent is not None:
            if name in parent.children:
                raise ValueError(f"duplicate child state {name!r} under {parent.name}")
            parent.children[name] = self

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    def set_initial(self, child: "State") -> None:
        if child.parent is not self:
            raise ValueError(f"{child.name} is not a child of {self.name}")
        self.initial = child

    def path(self) -> List["State"]:
        """Root-to-this list of states (fresh list; spine is cached)."""
        cached = self._path
        if cached is None:
            chain: List[State] = []
            node: Optional[State] = self
            while node is not None:
                chain.append(node)
                node = node.parent
            chain.reverse()
            cached = self._path = tuple(chain)
        return list(cached)

    def full_name(self) -> str:
        cached = self._full_name
        if cached is None:
            cached = self._full_name = ".".join(s.name for s in self.path())
        return cached

    def descend_to_leaf(self) -> "State":
        """Follow initial children down to a leaf."""
        node = self
        while not node.is_leaf:
            if node.initial is None:
                raise ValueError(f"compound state {node.full_name()} has no initial child")
            node = node.initial
        return node

    def is_ancestor_of(self, other: "State") -> bool:
        node: Optional[State] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def __deepcopy__(self, memo: dict) -> "State":
        return self  # chart structure is shared, never copied

    def __repr__(self) -> str:
        return f"State({self.full_name()})"


def least_common_ancestor(a: State, b: State) -> Optional[State]:
    """Deepest state that is an ancestor of both (None if disjoint trees)."""
    ancestors = set(id(s) for s in a.path())
    node: Optional[State] = b
    while node is not None:
        if id(node) in ancestors:
            return node
        node = node.parent
    return None
