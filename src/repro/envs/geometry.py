"""Pairwise geometry of one world state, shared by physics, rewards and info.

The scenarios and the collision physics all ask the same questions of a
world state: how far apart are two entities, and do they overlap?  The
per-pair MPE code answered each question with its own small numpy call,
O(N^2 L) of them per step for cooperative navigation.  Here one (E, 2)
position gather feeds one pairwise difference tensor, and every consumer
reads its matrices.  ``World.geometry()`` memoizes the object on the
exact bytes of what it reads (positions, sizes and the agent count), so
the N per-agent reward and info calls of a step, and the next step's
collision forces, share one computation; assigning ``p_pos`` directly
simply misses the memo.

Every matrix reproduces the per-pair expression it replaces bit for bit:

* ``dist`` is ``np.sqrt(np.sum(delta**2))`` (``is_collision`` and the
  contact model).  Summing the two squares along the last axis is the
  same two-term addition.
* ``pair_norms`` (``landmark_norms``, the predator-prey distances) is
  ``float(np.linalg.norm(delta))``, the scenario distance terms.
  ``norm`` takes a 1-D vector's length through ``dot``, and a stacked
  ``(1, 2) @ (2, 1)`` matmul calls the same dot kernel for every pair;
  ``np.sqrt((delta**2).sum(-1))``, ``hypot``, ``einsum`` and
  ``norm(axis=-1)`` round differently on some pairs.

Entity order is ``World.entities``: agents first, then landmarks.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, TypeVar

import numpy as np

__all__ = ["Geometry", "pair_norms"]

T = TypeVar("T")


def pair_norms(delta: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every 2-vector in ``delta[..., :]``, bit for bit."""
    return np.sqrt((delta[..., None, :] @ delta[..., :, None])[..., 0, 0])


class Geometry:
    """Positions, pairwise differences, distances and contacts of one state.

    ``delta[i, j] = pos[i] - pos[j]``.  ``contact[i, j]`` is
    ``is_collision`` for entities ``i != j`` (the diagonal is False).
    ``derive`` memoizes values scenarios compute from this state.
    """

    def __init__(self, pos: np.ndarray, sizes: np.ndarray, num_agents: int) -> None:
        self.pos = pos
        self.sizes = sizes
        self.num_agents = num_agents
        self.delta = pos[:, None, :] - pos[None, :, :]
        self.dist = np.sqrt((self.delta**2).sum(-1))
        self._memo: Dict[Hashable, object] = {}
        self._landmark_norms = None
        self._contact = None

    @property
    def landmark_norms(self) -> np.ndarray:
        """(N, L) ``np.linalg.norm(agent - landmark)`` distances."""
        if self._landmark_norms is None:
            n = self.num_agents
            self._landmark_norms = pair_norms(self.delta[:n, n:])
        return self._landmark_norms

    @property
    def contact(self) -> np.ndarray:
        """(E, E) overlap flags: ``dist < size_i + size_j``, off the diagonal."""
        if self._contact is None:
            contact = self.dist < self.sizes[:, None] + self.sizes[None, :]
            np.fill_diagonal(contact, False)
            self._contact = contact
        return self._contact

    def derive(self, key: Hashable, compute: Callable[["Geometry"], T]) -> T:
        """``compute(self)``, evaluated once per state for each ``key``."""
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = self._memo[key] = compute(self)
            return value
