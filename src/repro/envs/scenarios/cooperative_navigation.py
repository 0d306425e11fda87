"""Cooperative Navigation (MPE ``simple_spread``) — the paper's cooperative task.

N agents cooperate to cover N landmarks while avoiding collisions.  All
agents share the global reward ``-sum_l min_a dist(a, l)`` minus a
collision penalty, which is what drives the "all agents trained
collectively" behaviour the paper characterizes.

Observation layout per agent (matching MPE ``simple_spread``):
``[self_vel(2), self_pos(2), landmark_rel(2N), other_agents_rel(2(N-1)),
comm(2(N-1))]`` giving dimension ``6N``: Box(18,) at N = 3, Box(36,) at 6,
Box(72,) at 12, Box(144,) at 24 — exactly the paper's §II-B numbers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core import Agent, Landmark, World
from ..geometry import Geometry
from ..scenario import BaseScenario

__all__ = ["CooperativeNavigationScenario"]


class CooperativeNavigationScenario(BaseScenario):
    """Shared-reward landmark coverage with collision avoidance."""

    def __init__(
        self,
        num_agents: int = 3,
        num_landmarks: Optional[int] = None,
        collision_penalty: float = 1.0,
    ) -> None:
        if num_agents < 1:
            raise ValueError(f"need at least one agent, got {num_agents}")
        self.num_agents = num_agents
        self.num_landmarks = num_agents if num_landmarks is None else num_landmarks
        self.collision_penalty = collision_penalty

    def make_world(self, rng: np.random.Generator) -> World:
        world = World()
        world.dim_c = 2
        for i in range(self.num_agents):
            agent = Agent(name=f"agent_{i}")
            agent.collide = True
            agent.silent = False  # comm channel is part of the observation
            agent.size = 0.15
            world.agents.append(agent)
        for i in range(self.num_landmarks):
            landmark = Landmark(name=f"landmark_{i}")
            landmark.collide = False
            landmark.movable = False
            landmark.size = 0.05
            world.landmarks.append(landmark)
        self.reset_world(world, rng)
        return world

    def reset_world(self, world: World, rng: np.random.Generator) -> None:
        for agent in world.agents:
            agent.state.p_pos = rng.uniform(-1.0, +1.0, world.dim_p)
            agent.state.p_vel = np.zeros(world.dim_p)
            agent.state.c = np.zeros(world.dim_c)
        for landmark in world.landmarks:
            landmark.state.p_pos = rng.uniform(-1.0, +1.0, world.dim_p)
            landmark.state.p_vel = np.zeros(world.dim_p)

    def reward(self, agent: Agent, world: World) -> float:
        """Shared coverage reward with per-agent collision penalty."""
        rew, _, collisions = world.geometry().derive("coverage", _coverage)
        if agent.collide:
            for _ in range(collisions[world.agents.index(agent)]):
                rew -= self.collision_penalty
        return rew

    def observation(self, agent: Agent, world: World) -> np.ndarray:
        landmark_rel = [
            lm.state.p_pos - agent.state.p_pos for lm in world.landmarks
        ]
        other_rel = []
        comm = []
        for other in world.agents:
            if other is agent:
                continue
            other_rel.append(other.state.p_pos - agent.state.p_pos)
            comm.append(other.state.c)
        parts = [agent.state.p_vel, agent.state.p_pos, *landmark_rel, *other_rel, *comm]
        return np.concatenate(parts)

    def benchmark_data(self, agent: Agent, world: World) -> dict:
        _, coverage, collisions = world.geometry().derive("coverage", _coverage)
        return {
            "collisions": collisions[world.agents.index(agent)] if agent.collide else 0,
            "coverage": coverage,
        }


def _coverage(geom: Geometry) -> Tuple[float, float, List[int]]:
    """The shared terms of one state: the coverage reward (each landmark's
    nearest-agent distance subtracted in landmark order), the info
    ``coverage`` (``-sum`` of the same distances) and each agent's count
    of overlapping other agents."""
    nearest = geom.landmark_norms.min(axis=0).tolist()
    rew = 0.0
    for dist in nearest:
        rew -= dist
    n = geom.num_agents
    return rew, -sum(nearest), geom.contact[:n, :n].sum(axis=1).tolist()
