"""The array-program particle world is byte-identical to the per-pair oracle.

Every rollout runs twice from the same seed and the same actions: once on
the live environment, once on its ``as_reference`` twin (the per-pair
rewards, info and contact forces in ``tests/oracles/mpe.py``).  After
every step the two must agree byte for byte on observations, rewards,
dones, info, and every entity's ``p_pos`` and ``p_vel``, including the
Python type of each value.  Rollouts draw random soft one-hot (and some
integer) actions and, on chosen steps, force entities onto exactly the
same position as another entity, agent or landmark.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs import (
    Agent,
    CooperativeNavigationScenario,
    KeepAwayScenario,
    Landmark,
    MultiAgentEnv,
    PhysicalDeceptionScenario,
    PredatorPreyScenario,
    World,
)

from .oracles.mpe import ReferenceWorld, as_reference

#: (examples, steps per rollout) by agent count: the oracle is O(N^2 L)
#: per step, so the largest worlds get the fewest, shortest rollouts.
BUDGET = {1: (15, 10), 2: (15, 10), 3: (15, 10), 6: (10, 8), 12: (4, 5), 24: (2, 3)}


def canonical(value):
    """A comparable encoding that keeps every bit and every type."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, (float, np.floating)):
        return (type(value).__name__, struct.pack("<d", float(value)))
    return (type(value).__name__, value)


def world_state(world: World):
    return canonical(
        [(e.state.p_pos, e.state.p_vel) for e in world.entities]
    )


def random_action(rng: np.random.Generator):
    if rng.random() < 0.15:
        return int(rng.integers(5))
    logits = rng.standard_normal(5) * 3.0
    soft = np.exp(logits - logits.max())
    return soft / soft.sum()


def assert_rollouts_identical(build, seed: int, steps: int, overlaps) -> None:
    """Step a live env and its oracle twin in lock-step and compare."""
    live, ref = build(seed), as_reference(build(seed))
    assert canonical(live.reset()) == canonical(ref.reset())
    rng = np.random.default_rng(seed)
    for t in range(steps):
        for when, pile in overlaps:
            if when != t:
                continue
            # stack entities exactly onto the first one, in both worlds
            for env in (live, ref):
                entities = env.world.entities
                anchor = entities[pile[0] % len(entities)].state.p_pos
                for k in pile[1:]:
                    entities[k % len(entities)].state.p_pos = anchor.copy()
            for a, b in zip(live.agents, ref.agents):
                assert canonical(live.scenario.reward(a, live.world)) == (
                    canonical(ref.scenario.reward(b, ref.world))
                )
        actions = [random_action(rng) for _ in live.agents]
        out_live = live.step(actions)
        out_ref = ref.step(actions)
        assert canonical(out_live) == canonical(out_ref), f"step {t}"
        assert world_state(live.world) == world_state(ref.world), f"step {t}"
        if all(out_live[2]):
            assert canonical(live.reset()) == canonical(ref.reset())


def overlap_plan(steps: int):
    """(step, entities) pile-ups: the entities land on the first one."""
    return st.lists(
        st.tuples(
            st.integers(0, steps - 1),
            st.lists(st.integers(0, 200), min_size=2, max_size=5),
        ),
        max_size=3,
    )


def rollout_case(n: int):
    examples, steps = BUDGET[n]

    def decorate(test):
        return settings(max_examples=examples, deadline=None)(
            given(seed=st.integers(0, 2**31 - 1), overlaps=overlap_plan(steps))(test)
        )

    return decorate, steps


class TestCooperativeNavigation:
    @pytest.mark.parametrize("n", sorted(BUDGET))
    def test_matches_oracle(self, n):
        decorate, steps = rollout_case(n)

        @decorate
        def run(seed, overlaps):
            landmarks = n if seed % 3 == 0 else 1 + seed % (2 * n + 1)
            assert_rollouts_identical(
                lambda s: MultiAgentEnv(
                    CooperativeNavigationScenario(n, num_landmarks=landmarks),
                    max_episode_len=4,
                    seed=s,
                ),
                seed, steps, overlaps,
            )

        run()

    def test_no_landmarks(self):
        build = lambda s: MultiAgentEnv(  # noqa: E731
            CooperativeNavigationScenario(3, num_landmarks=0), seed=s
        )
        assert_rollouts_identical(build, 5, 6, [(2, [0, 1, 2])])


class TestPredatorPrey:
    @pytest.mark.parametrize("script_prey", [True, False])
    @pytest.mark.parametrize("n", sorted(BUDGET))
    def test_matches_oracle(self, n, script_prey):
        decorate, steps = rollout_case(n)

        @decorate
        def run(seed, overlaps):
            prey = None if seed % 2 else 1 + seed % 4
            assert_rollouts_identical(
                lambda s: MultiAgentEnv(
                    PredatorPreyScenario(n, num_prey=prey, shaped=seed % 5 != 0),
                    max_episode_len=5,
                    seed=s,
                    script_prey=script_prey,
                ),
                seed, steps, overlaps,
            )

        run()


class TestMixedScenarios:
    @pytest.mark.parametrize(
        "scenario",
        [
            lambda s: KeepAwayScenario(1 + s % 3, 1 + s % 2, 1 + s % 4),
            lambda s: PhysicalDeceptionScenario(1 + s % 3, 1 + s % 2, 2 + s % 3),
        ],
        ids=["keep_away", "physical_deception"],
    )
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), overlaps=overlap_plan(8))
    def test_matches_oracle(self, scenario, seed, overlaps):
        assert_rollouts_identical(
            lambda s: MultiAgentEnv(scenario(seed), max_episode_len=6, seed=s),
            seed, 8, overlaps,
        )


entity_flags = st.tuples(
    st.booleans(),  # is an agent (else a landmark)
    st.booleans(),  # movable
    st.booleans(),  # collide
    st.sampled_from([0.0, 0.05, 0.15, 0.3]),  # size
    st.sampled_from([None, 0.5, 1.3]),  # max_speed
)


@settings(max_examples=60, deadline=None)
@given(
    flags=st.lists(entity_flags, min_size=0, max_size=9),
    seed=st.integers(0, 2**31 - 1),
    overlap=st.booleans(),
)
def test_contact_physics_matches_oracle(flags, seed, overlap):
    """Raw worlds with every mix of movable/colliding agents and landmarks,
    including movable landmarks (no action force before their contacts)."""
    worlds = []
    for cls in (World, ReferenceWorld):
        rng = np.random.default_rng(seed)
        world = cls()
        for is_agent, movable, collide, size, max_speed in flags:
            entity = Agent() if is_agent else Landmark()
            entity.movable, entity.collide, entity.size = movable, collide, size
            entity.max_speed = max_speed
            entity.state.p_pos = rng.uniform(-0.3, 0.3, 2)
            entity.state.p_vel = rng.uniform(-1.0, 1.0, 2)
            if is_agent:
                entity.action.u = rng.uniform(-5.0, 5.0, 2)
            (world.agents if is_agent else world.landmarks).append(entity)
        if overlap and len(world.entities) >= 2:
            world.entities[-1].state.p_pos = world.entities[0].state.p_pos.copy()
        worlds.append(world)
    for _ in range(3):
        for world in worlds:
            world.step()
        assert world_state(worlds[0]) == world_state(worlds[1])
