"""Hand-built scenario fixtures and a step clock shared by the tests."""

from sitepath.cbs import Scenario
from sitepath.grid import Cell
from sitepath.lowlevel import Agent
from sitepath.mapgen import two_side_site


def bridging_scenario(seed: int = 4) -> Scenario:
    """Two machines sharing a single-cell bridge at staggered times.

    The crosser on the bridge row and the crosser on the row above pass
    the bridge a few steps apart, so the baseline plan is conflict-free
    even at a zero conflict threshold.  A two-step lag on the first
    machine collides their bridge slots and forces the fallback chain.
    """
    grid = two_side_site(seed=seed)
    wall_x = grid.width // 2
    bridge_y = next(
        y for y in range(grid.height) if grid.is_passable(Cell(wall_x, y))
    )
    agents = [
        Agent(
            id="hauler",
            start=Cell(wall_x - 5, bridge_y),
            goal=Cell(wall_x + 5, bridge_y),
            priority=1.0,
        ),
        Agent(
            id="grader",
            start=Cell(wall_x + 7, bridge_y + 1),
            goal=Cell(wall_x - 7, bridge_y + 1),
            priority=1.0,
        ),
    ]
    return Scenario(
        grid=grid,
        agents=agents,
        conflict_threshold=0,
        seed=seed,
        name="bridging",
    )


CORRIDOR_TEXT = """\
map 7 3 10
layer ground 1
# # # # # # #
1 1 1 1 1 1 1
# # # # # # #
"""


class StepClock:
    """A `time` stand-in whose `monotonic` advances a fixed step per read,
    so a deadline is reached after a count of reads on any host."""

    def __init__(self, step):
        self.step = step
        self.now = 0.0

    def monotonic(self):
        self.now += self.step
        return self.now
