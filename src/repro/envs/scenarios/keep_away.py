"""Keep-Away (MPE ``simple_push``) — extension scenario.

Another mixed task from the MADDPG suite: a good agent tries to reach
the goal landmark while an adversary — rewarded for keeping the good
agent away — physically pushes it off.  Unlike physical deception, the
adversary here *knows* where the goal is and the contest is physical
(both agents collide).

Observation layout (matching MPE ``simple_push``):

* good agent: ``[self_vel(2), goal_rel(2), landmark_rel(2L),
  other_agents_rel(2(A-1))]``
* adversary:  ``[self_vel(2), landmark_rel(2L), other_agents_rel(2(A-1))]``
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core import Agent, Landmark, World
from ..scenario import BaseScenario

__all__ = ["KeepAwayScenario"]


class KeepAwayScenario(BaseScenario):
    """simple_push: reach the goal; the adversary shoves you off it."""

    def __init__(
        self,
        num_good: int = 1,
        num_adversaries: int = 1,
        num_landmarks: int = 2,
    ) -> None:
        if num_good < 1 or num_adversaries < 1:
            raise ValueError("need at least one good agent and one adversary")
        if num_landmarks < 1:
            raise ValueError("need at least one landmark")
        self.num_good = num_good
        self.num_adversaries = num_adversaries
        self.num_landmarks = num_landmarks

    def make_world(self, rng: np.random.Generator) -> World:
        world = World()
        world.dim_c = 2
        for i in range(self.num_adversaries):
            agent = Agent(name=f"adversary_{i}")
            agent.adversary = True
            agent.collide = True
            agent.silent = True
            agent.size = 0.075
            world.agents.append(agent)
        for i in range(self.num_good):
            agent = Agent(name=f"agent_{i}")
            agent.adversary = False
            agent.collide = True
            agent.silent = True
            agent.size = 0.05
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
            landmark.state.p_pos = rng.uniform(-0.9, +0.9, world.dim_p)
            landmark.state.p_vel = np.zeros(world.dim_p)
        self._goal_index = int(rng.integers(self.num_landmarks))

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

    # -- rewards ---------------------------------------------------------------

    def reward(self, agent: Agent, world: World) -> float:
        dists = self.goal_distances(world)
        own_dist = dists[world.agents.index(agent)]
        if agent.adversary:
            # rewarded for every good agent's distance from the goal,
            # penalized for its own distance (it must contest the spot)
            good_dist = min(
                d for d, a in zip(dists, world.agents) if not a.adversary
            )
            return good_dist - own_dist
        return -own_dist

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
            parts = [agent.state.p_vel, *landmark_rel, *other_rel]
        else:
            goal_rel = self.goal(world).state.p_pos - agent.state.p_pos
            parts = [agent.state.p_vel, goal_rel, *landmark_rel, *other_rel]
        return np.concatenate(parts)

    def benchmark_data(self, agent: Agent, world: World) -> dict:
        return {
            "dist_to_goal": self.goal_distances(world)[world.agents.index(agent)],
            "is_adversary": agent.adversary,
        }
