"""Seeded random instance generation for the supported settings.

Every instance is produced by a single ``random.Random(seed)`` stream, so a
(seed, shape, flags) tuple pins the instance exactly across runs and
platforms.  Requested structural flags are guaranteed to hold on the output
(the classifier may detect extra structure the request did not ask for,
which is fine; it can never lose a requested flag).
"""

from __future__ import annotations

import random

from .errors import ValidationError
from .model import TemporalInstance


def generate(
    n_agents: int,
    horizon: int,
    goods_per_round: int,
    value_cap: int,
    seed: int,
    identical_days: bool = False,
    generalized_binary: bool = False,
    bi_valued: bool = False,
    identical_valuation: bool = False,
    house_allocation: bool = False,
    min_value: int = 0,
    buffer: int = 1,
) -> TemporalInstance:
    """Draw one instance with the requested structure.

    ``value_cap`` bounds every drawn value from above; ``min_value`` from
    below (use 1 to force strictly positive values).  ``house_allocation``
    overrides ``goods_per_round`` with the agent count.  A request that is
    internally contradictory, like binary-with-zeros plus two positive
    levels, is rejected rather than silently resolved.
    """
    if generalized_binary and bi_valued:
        raise ValidationError(
            "values cannot lie in {0,b} and in {a,b} with a > 0 at once"
        )
    if generalized_binary and min_value > 0:
        raise ValidationError("binary-with-zeros needs min_value 0")
    if n_agents < 1 or horizon < 1:
        raise ValidationError("need at least one agent and one round")
    if value_cap < max(min_value, 1):
        raise ValidationError("value_cap too small for the requested floor")
    if goods_per_round < 1 and not house_allocation:
        raise ValidationError("need at least one good per round")

    rng = random.Random(seed)
    per_round = n_agents if house_allocation else goods_per_round

    if generalized_binary:
        level = rng.randint(1, value_cap)
        palette = [0, level]
    elif bi_valued:
        low = rng.randint(1, value_cap)
        high = rng.randint(1, value_cap)
        palette = sorted({low, high})
    else:
        palette = None

    def draw_one() -> int:
        if palette is not None:
            return rng.choice(palette)
        return rng.randint(min_value, value_cap)

    def draw_vector() -> tuple[int, ...]:
        if identical_valuation:
            return (draw_one(),) * n_agents
        return tuple(draw_one() for _ in range(n_agents))

    def draw_day() -> list[tuple[int, ...]]:
        return [draw_vector() for _ in range(per_round)]

    if identical_days:
        template = draw_day()
        value_rounds = [template for _ in range(horizon)]
    else:
        value_rounds = [draw_day() for _ in range(horizon)]
    return TemporalInstance.from_value_rounds(value_rounds, buffer=buffer)
