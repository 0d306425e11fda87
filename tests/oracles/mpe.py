"""The per-pair particle-world code, kept as the oracle for the array program.

These are the MPE-style loops the package ran before its rewards, info
and contact forces moved onto the shared ``repro.envs.geometry``: one
``np.linalg.norm`` or ``is_collision`` call per pair, and one
``_get_collision_force`` call per entity pair.  They are kept verbatim so
the hypothesis tests can demand byte-identical outputs from the live
code.  ``as_reference(env)`` turns an environment into its oracle twin by
swapping the classes of its world and scenario for the subclasses below,
which hold no extra state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.envs.core import Entity, World, is_collision
from repro.envs.environment import MultiAgentEnv
from repro.envs.scenarios import (
    CooperativeNavigationScenario,
    KeepAwayScenario,
    PhysicalDeceptionScenario,
    PredatorPreyScenario,
)

__all__ = ["ReferenceWorld", "as_reference"]


class ReferenceWorld(World):
    """World whose contact forces come from the per-pair loop."""

    def _apply_environment_forces(
        self, forces: List[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        entities = self.entities
        for a, entity_a in enumerate(entities):
            for b, entity_b in enumerate(entities):
                if b <= a:
                    continue
                fa, fb = self._get_collision_force(entity_a, entity_b)
                if fa is not None:
                    forces[a] = fa if forces[a] is None else forces[a] + fa
                if fb is not None:
                    forces[b] = fb if forces[b] is None else forces[b] + fb
        return forces

    def _get_collision_force(self, entity_a: Entity, entity_b: Entity):
        """Soft-penetration collision response between two circles."""
        if not (entity_a.collide and entity_b.collide):
            return None, None
        if entity_a is entity_b:
            return None, None
        delta_pos = entity_a.state.p_pos - entity_b.state.p_pos
        dist = float(np.sqrt(np.sum(delta_pos**2)))
        dist_min = entity_a.size + entity_b.size
        # softmax-style penetration: smooth, differentiable contact model
        k = self.contact_margin
        penetration = np.logaddexp(0, -(dist - dist_min) / k) * k
        if dist > 0:
            direction = delta_pos / dist
        else:  # exactly overlapping: push along a fixed axis
            direction = np.array([1.0, 0.0])
        force = self.contact_force * direction * penetration
        force_a = +force if entity_a.movable else None
        force_b = -force if entity_b.movable else None
        return force_a, force_b


class ReferenceCooperativeNavigation(CooperativeNavigationScenario):
    def reward(self, agent, world) -> float:
        rew = 0.0
        for landmark in world.landmarks:
            dists = [
                float(np.linalg.norm(a.state.p_pos - landmark.state.p_pos))
                for a in world.agents
            ]
            rew -= min(dists)
        if agent.collide:
            for other in world.agents:
                if other is not agent and is_collision(agent, other):
                    rew -= self.collision_penalty
        return rew

    def benchmark_data(self, agent, world) -> dict:
        collisions = 0
        if agent.collide:
            collisions = sum(
                1
                for other in world.agents
                if other is not agent and is_collision(agent, other)
            )
        min_dists = [
            min(
                float(np.linalg.norm(a.state.p_pos - lm.state.p_pos))
                for a in world.agents
            )
            for lm in world.landmarks
        ]
        return {"collisions": collisions, "coverage": -sum(min_dists)}


class ReferencePredatorPrey(PredatorPreyScenario):
    def reward(self, agent, world) -> float:
        if agent.adversary:
            return self._reference_predator_reward(agent, world)
        return self._reference_prey_reward(agent, world)

    def _reference_predator_reward(self, agent, world) -> float:
        rew = 0.0
        preys = self.preys(world)
        if self.shaped:
            for prey in preys:
                rew -= 0.1 * min(
                    float(np.linalg.norm(p.state.p_pos - prey.state.p_pos))
                    for p in self.predators(world)
                )
        if agent.collide:
            for prey in preys:
                if is_collision(prey, agent):
                    rew += 10.0
        return rew

    def _reference_prey_reward(self, agent, world) -> float:
        rew = 0.0
        predators = self.predators(world)
        if self.shaped:
            for predator in predators:
                rew += 0.1 * float(
                    np.linalg.norm(agent.state.p_pos - predator.state.p_pos)
                )
        if agent.collide:
            for predator in predators:
                if is_collision(agent, predator):
                    rew -= 10.0
        # keep prey inside the arena: escalating boundary penalty
        for coord in agent.state.p_pos:
            rew -= self._bound_penalty(abs(float(coord)))
        return rew

    def benchmark_data(self, agent, world) -> dict:
        collisions = 0
        if agent.adversary and agent.collide:
            collisions = sum(
                1 for prey in self.preys(world) if is_collision(prey, agent)
            )
        return {"collisions": collisions}


class ReferenceKeepAway(KeepAwayScenario):
    def reward(self, agent, world) -> float:
        goal_pos = self.goal(world).state.p_pos
        if agent.adversary:
            good_dist = min(
                float(np.linalg.norm(a.state.p_pos - goal_pos))
                for a in self.good_agents(world)
            )
            own_dist = float(np.linalg.norm(agent.state.p_pos - goal_pos))
            return good_dist - own_dist
        return -float(np.linalg.norm(agent.state.p_pos - goal_pos))

    def benchmark_data(self, agent, world) -> dict:
        goal_pos = self.goal(world).state.p_pos
        return {
            "dist_to_goal": float(np.linalg.norm(agent.state.p_pos - goal_pos)),
            "is_adversary": agent.adversary,
        }


class ReferencePhysicalDeception(PhysicalDeceptionScenario):
    def reward(self, agent, world) -> float:
        goal_pos = self.goal(world).state.p_pos
        adv_dists = [
            float(np.linalg.norm(a.state.p_pos - goal_pos))
            for a in self.adversaries(world)
        ]
        if agent.adversary:
            return -min(adv_dists)
        good_dists = [
            float(np.linalg.norm(a.state.p_pos - goal_pos))
            for a in self.good_agents(world)
        ]
        return min(adv_dists) - min(good_dists)

    def benchmark_data(self, agent, world) -> dict:
        goal_pos = self.goal(world).state.p_pos
        return {
            "dist_to_goal": float(np.linalg.norm(agent.state.p_pos - goal_pos)),
            "is_adversary": agent.adversary,
        }


_REFERENCE = {
    CooperativeNavigationScenario: ReferenceCooperativeNavigation,
    PredatorPreyScenario: ReferencePredatorPrey,
    KeepAwayScenario: ReferenceKeepAway,
    PhysicalDeceptionScenario: ReferencePhysicalDeception,
}


def as_reference(env: MultiAgentEnv) -> MultiAgentEnv:
    """Switch ``env`` (in place) to the per-pair oracle code; returns it."""
    env.scenario.__class__ = _REFERENCE[type(env.scenario)]
    env.world.__class__ = ReferenceWorld
    return env
