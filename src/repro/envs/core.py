"""Particle-world physics core, re-implemented from the OpenAI MPE design.

The paper's workloads run on OpenAI's multiagent-particle-envs.  This
module rebuilds that substrate from scratch: a 2-D world of circular
entities (agents and landmarks) with first-order velocity damping, force
integration, and soft-penetration collision forces.  The constants
(``dt = 0.1``, ``damping = 0.25``, contact force/margin) follow the MPE
reference so episode dynamics — and therefore the workload the replay
buffer sees — match the paper's environment.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .geometry import Geometry

__all__ = ["EntityState", "AgentState", "Action", "Entity", "Landmark", "Agent", "World"]


class EntityState:
    """Physical state: 2-D position and velocity."""

    def __init__(self) -> None:
        self.p_pos = np.zeros(2)
        self.p_vel = np.zeros(2)


class AgentState(EntityState):
    """Agent state adds an utterance vector for communication channels.

    Cooperative-navigation observations include each other agent's
    communication vector (2 floats), which is how the paper's CN
    observation dimension reaches 6N (e.g. Box(18,) at N = 3).
    """

    def __init__(self, comm_dim: int = 2) -> None:
        super().__init__()
        self.c = np.zeros(comm_dim)


class Action:
    """Physical action ``u`` (2-D force) and communication action ``c``."""

    def __init__(self, comm_dim: int = 2) -> None:
        self.u = np.zeros(2)
        self.c = np.zeros(comm_dim)


class Entity:
    """A circular physical entity in the world."""

    def __init__(self, name: str = "entity") -> None:
        self.name = name
        self.size = 0.050
        self.movable = False
        self.collide = True
        self.density = 25.0
        self.mass = 1.0
        self.max_speed: Optional[float] = None
        self.accel: Optional[float] = None
        self.state = EntityState()
        self.initial_mass = 1.0


class Landmark(Entity):
    """A static (by default) landmark entity."""


class Agent(Entity):
    """A controllable (or scripted) agent entity."""

    def __init__(self, name: str = "agent") -> None:
        super().__init__(name)
        self.movable = True
        self.silent = True
        self.blind = False
        self.u_noise: Optional[float] = None
        self.c_noise: Optional[float] = None
        self.u_range = 1.0
        self.state = AgentState()
        self.action = Action()
        # Scripted behaviour (environment-controlled prey in predator-prey)
        self.action_callback = None
        self.adversary = False


class World:
    """The 2-D physics world: integrates forces and resolves collisions.

    The step order mirrors MPE: gather applied (action) forces, add
    pairwise collision response forces, integrate with damping, then
    update communication state.
    """

    def __init__(self) -> None:
        self.agents: List[Agent] = []
        self.landmarks: List[Landmark] = []
        self.dim_p = 2
        self.dim_c = 2
        self.dt = 0.1
        self.damping = 0.25
        self.contact_force = 1.0e2
        self.contact_margin = 1.0e-3
        self._geometry: Optional[Geometry] = None
        self._geometry_key: Optional[tuple] = None
        self._layout_key: Optional[tuple] = None
        self._layout: Optional[tuple] = None

    @property
    def entities(self) -> List[Entity]:
        return [*self.agents, *self.landmarks]

    @property
    def policy_agents(self) -> List[Agent]:
        """Agents controlled by learned policies."""
        return [a for a in self.agents if a.action_callback is None]

    @property
    def scripted_agents(self) -> List[Agent]:
        """Environment-controlled agents (e.g. the fast prey)."""
        return [a for a in self.agents if a.action_callback is not None]

    def geometry(self) -> Geometry:
        """The :class:`Geometry` of the current state.

        Memoized on the exact bytes of every position, the sizes and the
        agent count, so any change to the state, direct assignment
        included, rebuilds it.
        """
        entities = self.entities
        if entities:
            pos = np.concatenate(
                [e.state.p_pos for e in entities], dtype=np.float64
            ).reshape(len(entities), self.dim_p)
        else:
            pos = np.empty((0, self.dim_p))
        sizes = np.array([e.size for e in entities], dtype=np.float64)
        key = (len(self.agents), pos.tobytes(), sizes.tobytes())
        if key != self._geometry_key:
            self._geometry = Geometry(pos, sizes, len(self.agents))
            self._geometry_key = key
        return self._geometry

    # -- stepping -----------------------------------------------------------

    def step(self) -> None:
        """Advance the world by one physics tick."""
        for agent in self.scripted_agents:
            agent.action = agent.action_callback(agent, self)
        forces = self._apply_action_forces()
        forces = self._apply_environment_forces(forces)
        self._integrate_state(forces)
        for agent in self.agents:
            self._update_comm_state(agent)

    def _apply_action_forces(self) -> List[Optional[np.ndarray]]:
        forces: List[Optional[np.ndarray]] = [None] * len(self.entities)
        for i, agent in enumerate(self.agents):
            if agent.movable:
                force = agent.action.u.copy()
                if agent.u_noise:
                    force += np.random.randn(*force.shape) * agent.u_noise
                forces[i] = force
        return forces

    def _apply_environment_forces(
        self, forces: List[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        """Add the soft-penetration contact force of every colliding pair.

        One array program over the shared :class:`Geometry`, equal bit for
        bit to the MPE per-pair loop: a pair's force is computed once, for
        ``a < b`` along ``delta = pos_a - pos_b``, and ``b`` receives its
        negation (so an exactly overlapping pair is pushed apart, ``a``
        along +x and ``b`` along -x); every movable entity adds its forces
        in increasing partner index, after its action force.
        """
        layout = self._contact_layout()
        if layout is None:
            return forces
        a, b, receivers, pair_of, sign = layout
        geom = self.geometry()
        dist = geom.dist[a, b]
        dist_min = geom.sizes[a] + geom.sizes[b]
        # softmax-style penetration: smooth, differentiable contact model
        k = self.contact_margin
        penetration = np.logaddexp(0, -(dist - dist_min) / k) * k
        apart = dist > 0
        direction = geom.delta[a, b] / np.where(apart, dist, 1.0)[:, None]
        if not apart.all():  # exactly overlapping: push along a fixed axis
            direction[~apart] = np.eye(self.dim_p)[0]
        force = self.contact_force * direction * penetration[:, None]
        # each receiver sums [action force, its pair forces], left to right;
        # -0.0 stands in for a missing action force (it adds exactly)
        terms = np.empty((len(receivers), pair_of.shape[1] + 1, self.dim_p))
        no_force = np.full(self.dim_p, -0.0)
        terms[:, 0] = [no_force if forces[r] is None else forces[r] for r in receivers]
        terms[:, 1:] = force[pair_of] * sign
        totals = np.add.accumulate(terms, axis=1)[:, -1]
        for r, total in zip(receivers, totals):
            forces[r] = total
        return forces

    def _contact_layout(self):
        """Index arrays of the contact program, rebuilt when flags change.

        ``(a, b)`` are the entity indices of every colliding pair, ``a < b``
        in loop order.  ``receivers`` are the movable colliding entities;
        ``pair_of[r]`` lists receiver ``r``'s pairs by increasing partner
        index and ``sign[r]`` is +1 where it is the pair's ``a``, else -1.
        None when no contact force can act.
        """
        flags = tuple((e.collide, e.movable) for e in self.entities)
        if flags != self._layout_key:
            colliding = [i for i, (collide, _) in enumerate(flags) if collide]
            n = len(colliding)
            receivers = [k for k, i in enumerate(colliding) if flags[i][1]]
            layout = None
            if n >= 2 and receivers:
                slot = np.full((n, n), -1)
                upper = np.triu_indices(n, 1)
                slot[upper] = slot[upper[1], upper[0]] = np.arange(len(upper[0]))
                rows = np.array(receivers)
                partners = np.arange(n - 1) + (np.arange(n - 1) >= rows[:, None])
                idx = np.array(colliding)
                sign = np.where(partners > rows[:, None], 1.0, -1.0)[..., None]
                layout = (
                    idx[upper[0]],
                    idx[upper[1]],
                    idx[rows].tolist(),
                    slot[rows[:, None], partners],
                    sign,
                )
            self._layout_key, self._layout = flags, layout
        return self._layout

    def _integrate_state(self, forces: List[Optional[np.ndarray]]) -> None:
        for i, entity in enumerate(self.entities):
            if not entity.movable:
                continue
            entity.state.p_vel = entity.state.p_vel * (1.0 - self.damping)
            if forces[i] is not None:
                entity.state.p_vel += (forces[i] / entity.mass) * self.dt
            if entity.max_speed is not None:
                speed = float(np.sqrt(np.sum(entity.state.p_vel**2)))
                if speed > entity.max_speed:
                    entity.state.p_vel = entity.state.p_vel / speed * entity.max_speed
            entity.state.p_pos = entity.state.p_pos + entity.state.p_vel * self.dt

    def _update_comm_state(self, agent: Agent) -> None:
        if agent.silent:
            agent.state.c = np.zeros(self.dim_c)
        else:
            noise = (
                np.random.randn(*agent.action.c.shape) * agent.c_noise
                if agent.c_noise
                else 0.0
            )
            agent.state.c = agent.action.c + noise


def is_collision(agent_a: Agent, agent_b: Agent) -> bool:
    """True when two circular agents overlap (``Geometry.contact`` per pair)."""
    delta = agent_a.state.p_pos - agent_b.state.p_pos
    dist = float(np.sqrt(np.sum(delta**2)))
    return dist < agent_a.size + agent_b.size
