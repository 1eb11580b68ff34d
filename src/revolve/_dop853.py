"""The explicit Runge-Kutta method DOP853 with dense output and event location.

A port of what the profile flow uses of SciPy's ``solve_ivp(method="DOP853",
dense_output=True, events=...)``: the 8th-order step with its combined 5th-
and 3rd-order error estimate, the initial step selection, the step-size
control, the 7th-degree dense output, the piecewise solution object and the
event location. Every operation is SciPy's, the same NumPy call on arrays of
the same shape and layout, so a trace is bit-identical to SciPy's.

The coefficients are those of Hairer's DOP853 (E. Hairer, S. P. Norsett,
G. Wanner, "Solving Ordinary Differential Equations I", Sec. II), written as
the nearest doubles.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .quadrature import bracketed_root

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])

# Row i of the Butcher matrix, as {column: coefficient}; row 12 holds the
# weights B, rows 13-15 the extra stages of the dense output.
_A_ROWS = [
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
]
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _i, _row in enumerate(_A_ROWS):
    for _j, _v in _row.items():
        A[_i, _j] = _v
B = A[N_STAGES, :N_STAGES]

# Error estimators of orders 3 and 5, over the 13 stages of a step.
E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])

# Dense output: the last four of the seven interpolant coefficients.
D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

_EPS = float(np.finfo(float).eps)
_SAFETY = 0.9
_MIN_FACTOR = 0.2   # smallest step decrease
_MAX_FACTOR = 10    # largest step increase
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _norm(x: np.ndarray) -> float:
    """Root-mean-square norm."""
    return np.linalg.norm(x) / x.size ** 0.5


class _DenseOutput:
    """The step's interpolant on [t_old, t]."""

    def __init__(self, t_old, t, y_old: np.ndarray, F: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.F = F
        self.y_old = y_old

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)), dtype=self.y_old.dtype)
        for i, f in enumerate(reversed(self.F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y.T


class Solution:
    """The piecewise interpolant of a run: at a step boundary the earlier
    step's interpolant is used. Points are evaluated elementwise, so an
    array gives the bits of its points one by one."""

    def __init__(self, ts: Sequence[float], interpolants: list[_DenseOutput]):
        ts = np.asarray(ts)
        self.interpolants = interpolants
        self.ascending = bool(ts[-1] >= ts[0])
        self.ts_sorted = ts if self.ascending else ts[::-1]

    def __call__(self, t):
        t = np.asarray(t)
        n = len(self.interpolants)
        side = "left" if self.ascending else "right"
        segment = np.clip(np.searchsorted(self.ts_sorted, t, side=side) - 1, 0, n - 1)
        if not self.ascending:
            segment = n - 1 - segment
        if t.ndim == 0:
            return self.interpolants[int(segment)](t)
        y = np.empty((self.interpolants[0].y_old.size, t.size))
        for k in np.unique(segment).tolist():
            at = segment == k
            y[:, at] = self.interpolants[k](t[at])
        return y


class _Stepper:
    """DOP853 steps from (t0, y0) towards t_bound."""

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float,
                 max_step: float, rtol: float, atol: float):
        self.fun = lambda t, y: np.asarray(fun(t, y), dtype=float)
        self.t_old = None
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.max_step = max_step
        if rtol < 100 * _EPS:
            rtol = np.maximum(rtol, 100 * _EPS)
        self.rtol, self.atol = rtol, np.asarray(atol)
        self.f = self.fun(self.t, self.y)
        self.h_abs = self._initial_step()
        self.K_extended = np.empty((N_STAGES_EXTENDED, self.y.size), dtype=self.y.dtype)
        self.K = self.K_extended[:N_STAGES + 1]
        self.h_previous = None
        self.y_old = None

    def _initial_step(self):
        """Hairer's choice of the first step, for an error estimator of order 7."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _norm(y0 / scale)
        d1 = _norm(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * direction * f0
        f1 = self.fun(t0 + h0 * direction, y1)
        d2 = _norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length, self.max_step)

    def _rk_step(self, t, y, f, h):
        K = self.K
        K[0] = f
        for s, (a, c) in enumerate(zip(A[1:N_STAGES, :N_STAGES], C[1:N_STAGES]), start=1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(t + c * h, y + dy)
        y_new = y + h * np.dot(K[:-1].T, B)
        f_new = self.fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def _error_norm(self, h, scale):
        K = self.K
        err5 = np.dot(K.T, E5) / scale
        err3 = np.dot(K.T, E3) / scale
        err5_norm_2 = np.linalg.norm(err5) ** 2
        err3_norm_2 = np.linalg.norm(err3) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def step(self) -> bool:
        """One accepted step; False when the step size underflows."""
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False
            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = self._rk_step(t, y, self.f, h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        self.h_previous = h
        self.y_old = y
        self.t_old = t
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True

    def dense_output(self) -> _DenseOutput:
        K = self.K_extended
        h = self.h_previous
        for s, (a, c) in enumerate(zip(A[N_STAGES + 1:], C[N_STAGES + 1:]),
                                   start=N_STAGES + 1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(self.t_old + c * h, self.y_old + dy)
        F = np.empty((INTERPOLATOR_POWER, self.y.size), dtype=self.y_old.dtype)
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(D, K)
        return _DenseOutput(self.t_old, self.t, self.y_old, F)


class Result:
    """What a run returns: the step times ``t``, the roots of each event in
    ``t_events``, the dense solution ``sol``, and ``status`` (0 at t_bound,
    1 at a terminal event, -1 when the step size underflowed)."""

    def __init__(self, t, t_events, sol, status, message):
        self.t, self.t_events, self.sol = t, t_events, sol
        self.status, self.message = status, message


def solve(fun: Callable, t_bound: float, y0: Sequence[float], rtol: float, atol: float,
          max_step: float, events: Sequence[Callable]) -> Result:
    """Integrate y' = fun(t, y) from t = 0 to t_bound, as ``solve_ivp(fun,
    (0, t_bound), y0, method="DOP853", dense_output=True, events=events,
    rtol=rtol, atol=atol, max_step=max_step)``.

    An event is a function g(t, y) with the attributes ``terminal`` (bool)
    and ``direction`` (-1, 0 or +1, default 0). Each step whose end values
    of g bracket a zero in the event's direction locates it by Brent's
    method to 4 eps on the step's interpolant; a terminal event ends the run
    at its earliest root.
    """
    stepper = _Stepper(fun, 0.0, np.asarray(y0, dtype=float), float(t_bound),
                       max_step, rtol, atol)
    terminal = [bool(getattr(e, "terminal", False)) for e in events]
    direction = [getattr(e, "direction", 0) for e in events]
    ts = [0.0]
    interpolants = []
    t_events: list[list[float]] = [[] for _ in events]
    g = [e(0.0, y0) for e in events]
    status = None
    message = None
    while status is None:
        if not stepper.step():
            status, message = -1, TOO_SMALL_STEP
            break
        if stepper.direction * (stepper.t - stepper.t_bound) >= 0:
            status = 0
        t_old, t, y = stepper.t_old, stepper.t, stepper.y
        sol = stepper.dense_output()
        interpolants.append(sol)
        g_new = [e(t, y) for e in events]
        active = [i for i, (d, a, b) in enumerate(zip(direction, g, g_new))
                  if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0)]
        if active:
            roots = [bracketed_root(lambda s, e=events[i]: e(s, sol(s)), t_old, t,
                                    xtol=4 * _EPS) for i in active]
            if any(terminal[i] for i in active):
                found = sorted(zip(roots, active), key=lambda r: r[0] if t > t_old else -r[0])
                first = next(k for k, (_, i) in enumerate(found) if terminal[i])
                found = found[:first + 1]
                roots, active = [r for r, _ in found], [i for _, i in found]
                status = 1
                t = roots[-1]
            for i, root in zip(active, roots):
                t_events[i].append(root)
        g = g_new
        if len(ts) > 1 and ts[-1] == t:
            interpolants.pop()
        else:
            ts.append(t)
    return Result(np.array(ts), [np.asarray(te) for te in t_events],
                  Solution(ts, interpolants) if interpolants else None, status, message)
