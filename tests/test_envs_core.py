"""Tests for the particle-world physics core and spaces."""

import numpy as np
import pytest

from repro.envs import (
    Agent,
    Box,
    Discrete,
    Landmark,
    World,
    is_collision,
)


def make_single_agent_world() -> World:
    world = World()
    agent = Agent("a")
    agent.collide = False
    world.agents.append(agent)
    return world


class TestSpaces:
    def test_box_dim(self):
        assert Box(-1, 1, (16,)).dim == 16

    def test_box_contains(self):
        space = Box(-1, 1, (2,))
        assert space.contains(np.zeros(2))
        assert not space.contains(np.ones(3))
        assert not space.contains(np.array([2.0, 0.0]))

    def test_box_sample_in_bounds(self, rng):
        space = Box(-1, 1, (4,))
        for _ in range(20):
            assert space.contains(space.sample(rng))

    def test_box_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box(1, -1, (2,))

    def test_box_equality_and_repr(self):
        assert Box(-1, 1, (3,)) == Box(-1, 1, (3,))
        assert "Box" in repr(Box(-1, 1, (3,)))

    def test_discrete_contains(self):
        space = Discrete(5)
        assert space.contains(0) and space.contains(4)
        assert not space.contains(5)
        assert not space.contains(-1)
        assert not space.contains("x")

    def test_discrete_sample_range(self, rng):
        space = Discrete(5)
        draws = {space.sample(rng) for _ in range(200)}
        assert draws == {0, 1, 2, 3, 4}

    def test_discrete_invalid(self):
        with pytest.raises(ValueError):
            Discrete(0)


class TestWorldIntegration:
    def test_velocity_damps_without_force(self):
        world = make_single_agent_world()
        agent = world.agents[0]
        agent.state.p_vel = np.array([1.0, 0.0])
        world.step()
        assert agent.state.p_vel[0] == pytest.approx(0.75)  # damping 0.25

    def test_force_accelerates(self):
        world = make_single_agent_world()
        agent = world.agents[0]
        agent.action.u = np.array([10.0, 0.0])
        world.step()
        assert agent.state.p_vel[0] == pytest.approx(10.0 * world.dt)

    def test_position_integrates_velocity(self):
        world = make_single_agent_world()
        agent = world.agents[0]
        agent.action.u = np.array([10.0, 0.0])
        world.step()
        assert agent.state.p_pos[0] == pytest.approx(agent.state.p_vel[0] * world.dt)

    def test_max_speed_clamped(self):
        world = make_single_agent_world()
        agent = world.agents[0]
        agent.max_speed = 0.5
        agent.action.u = np.array([1000.0, 0.0])
        world.step()
        assert np.linalg.norm(agent.state.p_vel) <= 0.5 + 1e-12

    def test_static_landmark_never_moves(self):
        world = World()
        agent = Agent("a")
        landmark = Landmark("l")
        world.agents.append(agent)
        world.landmarks.append(landmark)
        agent.state.p_pos = np.array([0.01, 0.0])
        landmark.state.p_pos = np.zeros(2)
        for _ in range(5):
            world.step()
        np.testing.assert_array_equal(landmark.state.p_pos, np.zeros(2))

    def test_mass_divides_acceleration(self):
        world = make_single_agent_world()
        heavy = world.agents[0]
        heavy.mass = 2.0
        heavy.action.u = np.array([1.0, 0.0])
        world.step()
        light_vel = 1.0 * world.dt
        assert heavy.state.p_vel[0] == pytest.approx(light_vel / 2.0)


class TestCollisions:
    def make_pair(self, dist: float) -> World:
        world = World()
        a, b = Agent("a"), Agent("b")
        a.state.p_pos = np.array([0.0, 0.0])
        b.state.p_pos = np.array([dist, 0.0])
        world.agents.extend([a, b])
        return world

    def test_overlapping_agents_repel(self):
        world = self.make_pair(0.05)  # sizes sum to 0.1 -> overlap
        world.step()
        a, b = world.agents
        assert a.state.p_vel[0] < 0  # pushed left
        assert b.state.p_vel[0] > 0  # pushed right

    def test_distant_agents_barely_interact(self):
        world = self.make_pair(5.0)
        world.step()
        a, _ = world.agents
        assert abs(a.state.p_vel[0]) < 1e-6

    def test_collision_force_is_symmetric(self):
        world = self.make_pair(0.05)
        world.step()
        a, b = world.agents
        assert a.state.p_vel[0] == pytest.approx(-b.state.p_vel[0])

    def test_non_colliding_entity_ignored(self):
        world = self.make_pair(0.05)
        world.agents[0].collide = False
        world.step()
        assert abs(world.agents[1].state.p_vel[0]) < 1e-12

    def test_exactly_overlapping_pushes_along_axis(self):
        world = self.make_pair(0.0)
        world.step()
        a, b = world.agents
        assert np.all(np.isfinite(a.state.p_vel))
        assert a.state.p_vel[0] > 0  # the lower index goes +x
        assert a.state.p_vel[1] == 0.0
        np.testing.assert_array_equal(a.state.p_vel, -b.state.p_vel)

    def test_is_collision_threshold(self):
        a, b = Agent("a"), Agent("b")
        a.state.p_pos = np.zeros(2)
        b.state.p_pos = np.array([a.size + b.size - 0.01, 0.0])
        assert is_collision(a, b)
        b.state.p_pos = np.array([a.size + b.size + 0.01, 0.0])
        assert not is_collision(a, b)


class TestScriptedAgents:
    def test_action_callback_invoked_each_step(self):
        from repro.envs.core import Action

        world = World()
        agent = Agent("scripted")
        calls = []

        def callback(a, w):
            calls.append(1)
            act = Action()
            act.u = np.array([1.0, 0.0])
            return act

        agent.action_callback = callback
        world.agents.append(agent)
        world.step()
        world.step()
        assert len(calls) == 2
        assert agent.state.p_vel[0] > 0

    def test_policy_vs_scripted_partition(self):
        world = World()
        a, b = Agent("policy"), Agent("scripted")
        b.action_callback = lambda ag, w: ag.action
        world.agents.extend([a, b])
        assert world.policy_agents == [a]
        assert world.scripted_agents == [b]
