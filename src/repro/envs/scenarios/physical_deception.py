"""Physical Deception (MPE ``simple_adversary``) — extension scenario.

Not part of the paper's evaluation, but a standard MADDPG benchmark
from the same suite (Lowe et al. 2017): N cooperating agents must cover
the single *goal* landmark among L decoys while an adversary — who does
not know which landmark is the goal — tries to reach it.  Good agents
are rewarded for proximity to the goal and for the adversary's
distance from it; the adversary is rewarded for its own proximity.

Included as a third workload for users extending the characterization
to mixed cooperative-competitive settings.

Observation layout (matching MPE ``simple_adversary``):

* good agent: ``[goal_rel(2), landmark_rel(2L), other_agents_rel(2(A-1))]``
* adversary:  ``[landmark_rel(2L), other_agents_rel(2(A-1))]``
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core import Agent, Landmark, World
from ..scenario import BaseScenario

__all__ = ["PhysicalDeceptionScenario"]


class PhysicalDeceptionScenario(BaseScenario):
    """simple_adversary: cover the goal landmark, deceive the adversary."""

    def __init__(self, num_good: int = 2, num_adversaries: int = 1, num_landmarks: int = 2) -> None:
        if num_good < 1 or num_adversaries < 1:
            raise ValueError("need at least one good agent and one adversary")
        if num_landmarks < 2:
            raise ValueError("deception needs at least two landmarks")
        self.num_good = num_good
        self.num_adversaries = num_adversaries
        self.num_landmarks = num_landmarks

    def make_world(self, rng: np.random.Generator) -> World:
        world = World()
        world.dim_c = 2
        for i in range(self.num_adversaries):
            agent = Agent(name=f"adversary_{i}")
            agent.adversary = True
            agent.collide = False
            agent.silent = True
            agent.size = 0.15
            world.agents.append(agent)
        for i in range(self.num_good):
            agent = Agent(name=f"agent_{i}")
            agent.adversary = False
            agent.collide = False
            agent.silent = True
            agent.size = 0.15
            world.agents.append(agent)
        for i in range(self.num_landmarks):
            landmark = Landmark(name=f"landmark_{i}")
            landmark.collide = False
            landmark.movable = False
            landmark.size = 0.08
            world.landmarks.append(landmark)
        self.reset_world(world, rng)
        return world

    def reset_world(self, world: World, rng: np.random.Generator) -> None:
        for agent in world.agents:
            agent.state.p_pos = rng.uniform(-1.0, +1.0, world.dim_p)
            agent.state.p_vel = np.zeros(world.dim_p)
            agent.state.c = np.zeros(world.dim_c)
        for landmark in world.landmarks:
            landmark.state.p_pos = rng.uniform(-0.9, +0.9, world.dim_p)
            landmark.state.p_vel = np.zeros(world.dim_p)
        # the goal is a uniformly chosen landmark, hidden from the adversary
        self._goal_index = int(rng.integers(self.num_landmarks))

    # -- structure ------------------------------------------------------------

    def goal(self, world: World) -> Landmark:
        return world.landmarks[self._goal_index]

    def goal_distances(self, world: World) -> List[float]:
        """Every agent's ``np.linalg.norm`` distance to the goal landmark."""
        return world.geometry().landmark_norms[:, self._goal_index].tolist()

    @staticmethod
    def good_agents(world: World) -> List[Agent]:
        return [a for a in world.agents if not a.adversary]

    @staticmethod
    def adversaries(world: World) -> List[Agent]:
        return [a for a in world.agents if a.adversary]

    # -- rewards -----------------------------------------------------------------

    def reward(self, agent: Agent, world: World) -> float:
        dists = self.goal_distances(world)
        adv_dists = [d for d, a in zip(dists, world.agents) if a.adversary]
        if agent.adversary:
            return -min(adv_dists)
        good_dists = [d for d, a in zip(dists, world.agents) if not a.adversary]
        # team reward: cover the goal, keep the adversary away from it
        return min(adv_dists) - min(good_dists)

    # -- observations -------------------------------------------------------------

    def observation(self, agent: Agent, world: World) -> np.ndarray:
        landmark_rel = [
            lm.state.p_pos - agent.state.p_pos for lm in world.landmarks
        ]
        other_rel = [
            other.state.p_pos - agent.state.p_pos
            for other in world.agents
            if other is not agent
        ]
        if agent.adversary:
            parts = [*landmark_rel, *other_rel]
        else:
            goal_rel = self.goal(world).state.p_pos - agent.state.p_pos
            parts = [goal_rel, *landmark_rel, *other_rel]
        return np.concatenate(parts)

    def benchmark_data(self, agent: Agent, world: World) -> dict:
        return {
            "dist_to_goal": self.goal_distances(world)[world.agents.index(agent)],
            "is_adversary": agent.adversary,
        }
