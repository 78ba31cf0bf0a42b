"""The augmented-Lagrangian rule shared by the capped local solvers
(``reporting.CapPenalty``), driven directly with chosen leakages: members
are independent, a stopped member is frozen, a member converges only after
a finished round at the final tolerance, runs out at the round cap, and
grows its penalty only after a finished round whose residual fell slowly.
"""
import numpy as np
import pytest

from bdris import reporting
from bdris.reporting import CapPenalty

EPS = 2.0
TOL0, TOL_MIN, SHRINK = 1e-2, 1e-4, 0.1
RESIDUAL_TOL = 1e-8


def penalty(members=1, max_rounds=50):
    """A penalty on the cap ``EPS`` with rho starting at _RHO0 / EPS, and an
    inner tolerance that reaches its floor in the third round."""
    return CapPenalty(members, EPS, EPS, TOL0, TOL_MIN, SHRINK, max_rounds, RESIDUAL_TOL)


def end(pen, leak, finished=True):
    """End one round of every member at the leakages ``leak``."""
    leak = np.asarray(leak, dtype=float)
    return pen.end_round(np.ones(leak.shape, dtype=bool), leak, finished)


def state(pen, i):
    return (pen.lam[i], pen.rho[i], pen.tol[i], pen.residual[i], pen.rounds[i],
            pen.live[i], pen.converged[i])


class TestCapPenalty:
    def test_start(self):
        pen = penalty(3)
        assert pen.lam.tolist() == [0.0] * 3
        assert pen.rho.tolist() == [reporting._RHO0 / EPS] * 3
        assert pen.tol.tolist() == [TOL0] * 3
        assert np.isinf(pen.residual).all()
        assert pen.rounds.tolist() == [0] * 3
        assert pen.live.all() and not pen.converged.any()

    def test_residual_and_multiplier(self):
        """residual = |max(f_e - eps, -lam/rho)| / eps with the round's lam,
        then lam <- max(0, lam + rho (f_e - eps))."""
        pen = penalty()
        rho = pen.rho[0]
        end(pen, [3.0])
        assert pen.residual[0] == 0.5 and pen.lam[0] == rho
        end(pen, [1.5])
        assert pen.residual[0] == abs(max(-0.5, -rho / rho)) / EPS
        assert pen.lam[0] == max(0.0, rho + rho * -0.5)
        end(pen, [0.0])
        assert pen.lam[0] == 0.0

    def test_members_are_independent(self):
        """A member follows the path it would follow alone, and one whose
        round did not end is left as it is."""
        leaks = [[3.0, 100.0, 2.2], [2.5, 50.0, 1.0], [2.1, 1.0, 2.05]]
        pen = penalty(3)
        alone = [penalty(), penalty()]
        fresh = state(penalty(3), 1)
        for leak in leaks:
            again = pen.end_round(np.array([True, False, True]), np.array(leak), True)
            assert again.tolist() == [True, False, True]
            for a, i in zip(alone, (0, 2)):
                end(a, [leak[i]])
        assert state(pen, 1) == fresh
        for a, i in zip(alone, (0, 2)):
            assert state(pen, i) == state(a, 0)

    def test_stopped_member_is_frozen(self):
        pen = penalty(2)
        for _ in range(3):
            end(pen, [EPS, 3.0])
        assert pen.live.tolist() == [False, True]
        frozen = state(pen, 0)
        again = end(pen, [100.0, 3.0])
        assert again.tolist() == [False, True]
        assert state(pen, 0) == frozen
        assert pen.rounds.tolist() == [3, 4]

    def test_converges_only_at_the_final_tolerance(self):
        """A met cap ends the run only after a round at TOL_MIN."""
        pen = penalty()
        for _ in range(2):
            assert end(pen, [EPS]).all()
            assert pen.residual[0] == 0.0 and not pen.converged[0]
        assert pen.tol[0] == TOL_MIN
        assert not end(pen, [EPS]).any()
        assert pen.converged[0] and not pen.live[0] and pen.rounds[0] == 3

    def test_done_but_unfinished_round_continues(self):
        """A round at the final tolerance and residual that ran out of steps
        goes on to another round; the next finished one converges."""
        pen = penalty()
        for _ in range(4):
            assert end(pen, [EPS], finished=False).all()
        assert pen.tol[0] == TOL_MIN and pen.residual[0] == 0.0
        assert pen.live[0] and not pen.converged[0]
        assert not end(pen, [EPS]).any()
        assert pen.converged[0] and pen.rounds[0] == 5

    def test_round_cap_ends_unconverged(self):
        pen = penalty(max_rounds=6)
        for _ in range(5):
            assert end(pen, [2.0 * EPS]).all()
        assert not end(pen, [2.0 * EPS]).any()
        assert not pen.live[0] and not pen.converged[0] and pen.rounds[0] == 6

    @pytest.mark.parametrize("fall,finished,grows", [
        (2.0, True, True), (3.9, True, True), (4.1, True, False),
        (2.0, False, False), (100.0, True, False)])
    def test_rho_grows_after_a_finished_slow_round(self, fall, finished, grows):
        """rho grows by _RHO_GROWTH only after a finished round whose
        residual fell by less than _RESIDUAL_FALL; never after the first."""
        pen = penalty()
        rho = pen.rho[0]
        end(pen, [EPS + 1.0])
        assert pen.residual[0] == 0.5 and pen.rho[0] == rho
        end(pen, [EPS + EPS * 0.5 / fall], finished)
        assert pen.residual[0] == pytest.approx(0.5 / fall, rel=1e-12)
        assert pen.rho[0] == (rho * reporting._RHO_GROWTH if grows else rho)

    def test_rho_stays_once_the_residual_is_met(self):
        pen = penalty()
        end(pen, [EPS + 1.0])
        rho = pen.rho[0]
        end(pen, [EPS * (1.0 + RESIDUAL_TOL / 2)])
        assert pen.rho[0] == rho

    def test_tolerance_floor(self):
        pen = penalty()
        tols = []
        for _ in range(6):
            end(pen, [2.0 * EPS], finished=False)
            tols.append(pen.tol[0])
        assert tols[0] == pytest.approx(TOL0 * SHRINK)
        assert min(tols) == TOL_MIN
        assert tols[1:] == sorted(tols[1:], reverse=True)
        assert tols[-3:] == [TOL_MIN] * 3
