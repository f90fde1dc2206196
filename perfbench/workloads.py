"""The benchmark's workloads: seeded inputs, closed-form references, one round each.

Every input is a scenario config text drawn from a seed, so the program sees
only generated inputs and the benchmark knows each answer in closed form
(README and PAPER):

* potsdam, ``phi = i s x e^{-x}``:       margin = Re rho - s^2/16 + s
* shirley, ``phi = s (x^2 - x)``:        margin = |rho|^2 - Re rho - s^2/12 + s Im rho
* konzert, ``ell = c``:                  margin = 1/2 - |c|^2 / (8 gamma)
* rank-one Schroedinger:                 margin = Im h - |lambda|^2 / (4 alpha)
* multiplication Schroedinger, V = 1 on (0,1), ``k = c`` there:
                                         margin = Im h - c^2 / 4

A workload's round is a fixed list of operations on those inputs; the
benchmark repeats whole rounds, so every run does the same mix of work and
per-round counts repeat exactly.  Each operation is timed around the public
call a user makes and its output is checked; a failure is recorded with its
inputs, never dropped.

The machine's speed drifts by 20% to 40% within seconds, because other
tenants share its cores.  A measured run therefore times a fixed
calibration loop just before and just after each timed operation (or batch
of short ones) and scales the operation's wall time to the reference speed:
``wall * CALIBRATION_REFERENCE_S / calibration``, with the mean of the two
calibrations.  Both the wall times and the scaled times are kept.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import mpmath
import numpy as np

from dissipext import cli_io, criteria, oracle

KINDS = ("potsdam", "shirley", "konzert", "rank_one", "multiplication")

#: sweep and check rows closer than this to the boundary have no sign check
SIGN_BAND = 1e-9
#: margins must match the closed form to this relative tolerance
MARGIN_RTOL = 1e-8
#: acceptance 5: oracle instances are redrawn until |margin| > 0.05
ORACLE_BAND = 0.05
#: distance below which verdict_general's sign is not compared with decide's,
#: the rule of test_general_sign_agreement_on_draws, on every scenario
GENERAL_BAND = 1e-3
GENERAL_BASIS_DIM = 24
#: failures listed with their inputs; the rest are only counted
MAX_LISTED_FAILURES = 50
#: run_sweep's pool size in verdict_map.  The CLI passes none, which gives
#: min(32, nproc + 4) threads; on the 2-core machine of baseline.json that
#: pool's time per sweep, scaled, spread by 0.2 between 20-second blocks
#: while one worker's spread by 0.06 to 0.09, alternating in one process
SWEEP_WORKERS = 1
#: a round figure near the calibration loop's median time on the 2-core
#: machine of baseline.json; scaled times are wall times at this speed
CALIBRATION_REFERENCE_S = 0.010


# ---------------------------------------------------------------------------
# seeded draws and their closed forms


def _r6(x: float) -> float:
    """Round to the six decimals the config text carries."""
    return float(f"{x:.6f}")


def _c6(re: float, im: float) -> complex:
    return complex(_r6(re), _r6(im))


def _fmt(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


@dataclass(frozen=True)
class Draw:
    """One scenario instance, with parameters exactly as the config states them."""

    kind: str
    params: dict

    def config(self, bp: complex | None = None) -> str:
        """Config text; ``bp`` replaces the boundary parameter (rho or h)."""
        p = self.params
        if self.kind == "potsdam":
            lines = ["name = potsdam", f"rho = {_fmt(bp if bp is not None else p['rho'])}"]
            if p["s"]:
                lines.append(f"phi = {p['s']:.6f}i*x*exp(-x)")
        elif self.kind == "shirley":
            lines = ["name = shirley", f"gamma = {p['gamma']!r}",
                     f"rho = {_fmt(bp if bp is not None else p['rho'])}"]
            if p["s"]:
                lines.append(f"phi = {p['s']:.6f}*(x^2 - x)")
        elif self.kind == "konzert":
            lines = ["name = konzert", f"gamma = {p['gamma']!r}", f"ell = {_fmt(p['c'])}"]
        else:
            lines = ["name = halfline_schrodinger",
                     f"h = {_fmt(bp if bp is not None else p['h'])}"]
            if self.kind == "rank_one":
                lines += ["perturbation = rank_one", f"alpha = {p['alpha']:.6f}",
                          f"lambda = {_fmt(p['lam'])}"]
            else:
                lines += ["perturbation = multiplication", "V = indicator(0,1)",
                          f"k = {p['c']:.6f}*indicator(0,1)"]
        return "[scenario]\n" + "\n".join(lines) + "\n"

    def margin(self, bp: complex | None = None) -> float:
        """Closed-form decision margin (dissipative iff >= 0)."""
        p = self.params
        if self.kind == "potsdam":
            rho = bp if bp is not None else p["rho"]
            return rho.real - p["s"] ** 2 / 16.0 + p["s"]
        if self.kind == "shirley":
            rho = bp if bp is not None else p["rho"]
            return abs(rho) ** 2 - rho.real - p["s"] ** 2 / 12.0 + p["s"] * rho.imag
        if self.kind == "konzert":
            return 0.5 - abs(p["c"]) ** 2 / (8.0 * p["gamma"])
        h = bp if bp is not None else p["h"]
        if self.kind == "rank_one":
            return h.imag - abs(p["lam"]) ** 2 / (4.0 * p["alpha"])
        return h.imag - p["c"] ** 2 / 4.0


def draw(kind: str, rng: np.random.Generator, *, deviation: bool | None = None) -> Draw:
    """One instance from the acceptance-5 distribution of ``kind``.

    ``deviation`` fixes whether the potsdam and shirley deviation generator
    is non-zero instead of leaving it to the draw, so that a batch has the
    same mix of work on every seed; with it on, ``verdict_general`` does its
    full work instead of returning early.
    """
    if kind == "potsdam":
        rho = _c6(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        on = bool(rng.integers(0, 2)) if deviation is None else deviation
        s = _r6(rng.uniform(0.2, 1.5)) if on else 0.0
        return Draw(kind, {"rho": rho, "s": s})
    if kind == "shirley":
        gamma = max(_r6(rng.uniform(math.sqrt(3.0), 4.0)), 1.732051)
        rho = _c6(rng.uniform(-0.6, 1.6), rng.uniform(-0.8, 0.8))
        if deviation is None:
            s = _r6(rng.uniform(-1.2, 1.2))
            s = s if abs(s) > 0.05 else 0.0
        else:
            s = _r6(rng.uniform(0.3, 1.2) * rng.choice((-1.0, 1.0))) if deviation else 0.0
        return Draw(kind, {"gamma": gamma, "rho": rho, "s": s})
    if kind == "konzert":
        gamma = _r6(rng.uniform(0.08, 0.45))
        return Draw(kind, {"gamma": gamma, "c": _c6(rng.normal(0, 0.8), rng.normal(0, 0.8))})
    h = _c6(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.5))
    if kind == "rank_one":
        lam = _c6(rng.normal(0, 1.5), rng.normal(0, 1.5))
        return Draw(kind, {"h": h, "alpha": _r6(rng.uniform(0.5, 2.0)), "lam": lam})
    return Draw(kind, {"h": h, "c": _r6(rng.uniform(0.0, 4.0))})


def draw_away(kind: str, rng, band: float, skips: list) -> Draw:
    """Redraw until the closed-form margin is farther than ``band`` from 0."""
    while True:
        d = draw(kind, rng)
        if abs(d.margin()) > band:
            return d
        skips.append(d)


def build(d: Draw):
    """The ExtensionProblem the CLI builds from the draw's config."""
    return cli_io.build_problem(cli_io.parse_config(d.config()))


# ---------------------------------------------------------------------------
# machine speed


def calibration() -> float:
    """Wall time of a fixed loop of the kinds of work the package does:
    interpreted arithmetic, small numpy array operations and one
    ``mpmath.quad``.  It calls no package code, so no change to the package
    moves it."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    mpmath.quad(lambda x: mpmath.exp(-x) * mpmath.sqrt(x), [0, 1])
    a = np.arange(2000.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def calibrated_speed(samples: int = 1) -> float:
    """Time per reference time of the calibration loop: 1.2 means 20% slow."""
    return statistics.median(calibration() for _ in range(samples)) / CALIBRATION_REFERENCE_S


# ---------------------------------------------------------------------------
# recording


@dataclass
class Recorder:
    """Timings and check results of one run.

    ``latency`` holds one time per latency-timed operation, scaled to the
    reference speed, ``wall_latency`` the same as measured and
    ``latency_keys`` the operation's input (its config text); ``rounds``
    holds, per round, the items of bulk work done and the scaled and wall
    seconds they took.  With ``calibrate`` off, as in traced rounds, no
    calibration loop runs and scaled times equal wall times.
    """

    calibrate: bool = False
    latency: list = field(default_factory=list)
    wall_latency: list = field(default_factory=list)
    latency_keys: list = field(default_factory=list)
    speeds: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: checks that compared the value but not the sign, being within a band of 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str, inputs: str, got) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what, inputs, repr(got))

    def error(self, what: str, inputs: str) -> None:
        self.attempted += 1
        self._fail(what, inputs, traceback.format_exc(limit=3))

    def _fail(self, what: str, inputs: str, got: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append({"check": what, "inputs": inputs, "got": got})

    def speed(self, samples: int = 1) -> float:
        """The machine's speed right now, by calibration loops (1.0 when off)."""
        if not self.calibrate:
            return 1.0
        speed = calibrated_speed(samples)
        self.speeds.append(speed)
        return speed

    def timed(self, fn, *args, samples: int = 1, **kwargs):
        """``fn(*args, **kwargs)`` and its (wall, scaled) seconds.  The speed is
        the mean of the calibrations just before and just after the call."""
        before = self.speed(samples)
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
        return result, wall, 2.0 * wall / (before + self.speed(samples))

    def add_latency(self, key: str, wall: float, scaled: float) -> None:
        self.latency_keys.append(key)
        self.wall_latency.append(wall)
        self.latency.append(scaled)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def time_list(self, key: str) -> list:
        return self.detail.setdefault(key, [])


def _margin_ok(got, expect: float) -> bool:
    return got is not None and abs(got - expect) <= MARGIN_RTOL * (1.0 + abs(expect))


def _sign_ok(dissipative, expect: float) -> bool:
    return abs(expect) <= SIGN_BAND or dissipative is (expect >= 0.0)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""

    def build(self, seed: int):
        raise NotImplementedError

    def warmup(self, inputs) -> None:
        """One untimed operation, so that lazy set-up is not timed."""

    def run_round(self, inputs, rec: Recorder) -> list:
        """Do one round, record timings and checks; return comparable outputs."""
        raise NotImplementedError


class VerdictMap(Workload):
    name = "verdict_map"
    why = ("parse+check of seeded configs of every scenario, then the 41x41 Potsdam, a Shirley "
           "and a Schroedinger sweep: criteria, forms, catalog, grid; no eigensolver")
    configs_per_kind = 20
    sweeps = (
        ("potsdam", (-1.0, 1.0, 0.05), (-1.0, 1.0, 0.05)),
        ("shirley", (-0.6, 1.6, 0.1), (-0.8, 0.8, 0.1)),
        ("multiplication", (-1.0, 1.0, 0.1), (0.1, 1.5, 0.1)),
    )

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        checks = [(d, d.config()) for i in range(self.configs_per_kind)
                  for d in (draw(k, rng, deviation=i % 2 == 0) for k in KINDS)]
        sweeps = []
        for kind, re_axis, im_axis in self.sweeps:
            d = draw(kind, rng, deviation=True)
            sweeps.append((d, cli_io.parse_config(d.config()), re_axis, im_axis))
        return checks, sweeps

    def warmup(self, inputs) -> None:
        checks, _ = inputs
        for d, text in checks[:len(KINDS)]:
            cli_io.run_check(cli_io.parse_config(text))

    def run_round(self, inputs, rec: Recorder) -> list:
        checks, sweeps = inputs
        out = []
        # a check is far shorter than a calibration loop, so the batch, not
        # each check, is bracketed by calibrations
        before = rec.speed(samples=3)
        walls = []
        for d, text in checks:
            try:
                t0 = perf_counter()
                code, payload = cli_io.run_check(cli_io.parse_config(text))
                walls.append((text, perf_counter() - t0))
            except Exception:
                rec.error("run_check raised", text)
                continue
            expect = d.margin()
            got = (code, payload.get("margin"), payload.get("dissipative"))
            ok = (_margin_ok(got[1], expect) and _sign_ok(got[2], expect)
                  and code == (0 if got[2] else 1))
            rec.check(ok, f"check margin {expect!r}", text, got)
            rec.skipped += abs(expect) <= SIGN_BAND
            out.append(got)
        speed = (before + rec.speed(samples=3)) / 2.0
        for text, wall in walls:
            rec.add_latency(text, wall, wall / speed)
        points = 0
        elapsed = elapsed_wall = 0.0
        for d, cfg, re_axis, im_axis in sweeps:
            inputs_txt = f"{d.config()} re={re_axis} im={im_axis}"
            try:
                payload, wall, scaled = rec.timed(cli_io.run_sweep, cfg, re_axis, im_axis,
                                                  max_workers=SWEEP_WORKERS, samples=3)
            except Exception:
                rec.error("run_sweep raised", inputs_txt)
                continue
            rows = payload["rows"]
            elapsed += scaled
            elapsed_wall += wall
            points += len(rows)
            rec.time_list(f"sweep_s.{d.kind}").append(scaled)
            n_re = int(math.floor((re_axis[1] - re_axis[0]) / re_axis[2] + 1e-9)) + 1
            n_im = int(math.floor((im_axis[1] - im_axis[0]) / im_axis[2] + 1e-9)) + 1
            rec.check(len(rows) == n_re * n_im, "sweep row count", inputs_txt, len(rows))
            for row in rows:
                bp = complex(row["re_rho"], row["im_rho"])
                expect = d.margin(bp)
                ok = _margin_ok(row["margin"], expect) and _sign_ok(row["dissipative"], expect)
                rec.check(ok, f"sweep row margin {expect!r}", f"{inputs_txt} at {bp!r}", row)
                rec.skipped += abs(expect) <= SIGN_BAND
            out.append(tuple((row["margin"], row["dissipative"]) for row in rows))
        rec.rounds.append((points, elapsed, elapsed_wall))
        return out


class OracleCoarse(Workload):
    name = "oracle_coarse"
    why = ("decide+cross_validate at meshes 64/128/256 on acceptance-5 draws of all scenarios: "
           "many small pencils, so per-call overhead of assembly and eigenh counts")
    meshes = (64, 128, 256)
    cycles = 4

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        skips: list = []
        draws = [draw_away(k, rng, ORACLE_BAND, skips) for _ in range(self.cycles) for k in KINDS]
        return [(d, build(d)) for d in draws], len(skips)

    def warmup(self, inputs) -> None:
        _, problem = inputs[0][0]
        oracle.cross_validate(problem, criteria.decide(problem), meshes=self.meshes[:1])

    def run_round(self, inputs, rec: Recorder) -> list:
        instances, redrawn = inputs
        rec.detail["redrawn_near_boundary"] = redrawn
        out = []
        done = 0
        elapsed = elapsed_wall = 0.0
        for d, problem in instances:
            text = d.config()
            try:
                (verdict, report), wall, scaled = rec.timed(self._one, problem)
            except Exception:
                rec.error("decide/cross_validate raised", text)
                continue
            rec.add_latency(text, wall, scaled)
            elapsed += scaled
            elapsed_wall += wall
            done += 1
            expect = d.margin()
            if verdict.dissipative:
                rule = min(report.infima) >= -1e-5
            else:
                rule = report.extrapolated < 0.0
            ok = (rule and _margin_ok(verdict.margin, expect)
                  and verdict.dissipative is (expect >= 0.0))
            rec.check(ok, f"oracle acceptance-5 rule, margin {expect!r}", text,
                      (verdict.margin, verdict.dissipative, report.infima, report.extrapolated))
            rec.count("oracle.cross_validations")
            rec.count("oracle.resolution_limited", int(report.resolution_limited))
            rec.count("oracle.agree_or_limited", int(bool(report.agree) or report.resolution_limited))
            out.append((verdict.margin, verdict.dissipative, report.infima,
                        report.extrapolated, report.agree, report.resolution_limited))
        rec.rounds.append((done, elapsed, elapsed_wall))
        return out

    def _one(self, problem):
        verdict = criteria.decide(problem)
        return verdict, oracle.cross_validate(problem, verdict, meshes=self.meshes)


class GeneralSpan(Workload):
    """verdict_general on one Shirley, one Potsdam and one Konzert draw.

    The Shirley draw follows test_general_sign_agreement_on_draws: gamma is
    sqrt(3) and the seed moves rho and the deviation's scale, which leave
    the integrals, and so the cost, unchanged.  Only the Shirley call is
    timed for latency: the three kinds cost about 2 s, 0.25 s and 0.08 s,
    and the median of a mix would sit on whichever kind the mix favours.
    """

    name = "general_span"
    why = ("verdict_general on a Shirley draw (the only path into mpmath.quad and the dense "
           "eigenh.eigh of the square-root pair) and on Potsdam and Konzert draws (elementary)")
    special = "shirley"

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        shirley = draw("shirley", rng, deviation=True)
        shirley = Draw("shirley", dict(shirley.params, gamma=math.sqrt(3.0)))
        items = []
        for d in (shirley, draw("potsdam", rng, deviation=True), draw("konzert", rng)):
            problem = build(d)
            items.append((d, problem, criteria.decide(problem)))
        return items

    def warmup(self, inputs) -> None:
        _, problem, _ = inputs[0]
        criteria.verdict_general(problem, basis_dim=2)

    def run_round(self, inputs, rec: Recorder) -> list:
        out = []
        calls = 0
        elapsed = elapsed_wall = 0.0
        for d, problem, ref in inputs:
            text = d.config()
            try:
                vg, wall, scaled = rec.timed(criteria.verdict_general, problem,
                                             basis_dim=GENERAL_BASIS_DIM)
            except Exception:
                rec.error("verdict_general raised", text)
                continue
            elapsed += scaled
            elapsed_wall += wall
            calls += 1
            rec.time_list(f"general_s.{d.kind}").append(scaled)
            if d.kind == self.special:
                rec.add_latency(text, wall, scaled)
            if abs(ref.margin) <= GENERAL_BAND:
                rec.skipped += 1
            else:
                rec.check(vg.dissipative is ref.dissipative,
                          f"verdict_general sign vs decide margin {ref.margin!r}", text, vg)
            out.append((vg.margin, vg.dissipative))
        rec.rounds.append((calls, elapsed, elapsed_wall))
        return out


WORKLOADS = {w.name: w for w in (VerdictMap(), OracleCoarse(), GeneralSpan())}
