"""The benchmark's four seeded workloads and their independent references.

Each workload turns ``--seed`` into a fixed corpus of jobs.  A job runs
one slice of the paper's flow from workload in to counts out — oracle
construction, ``repro.compile`` or ``CompilerSession.sweep``, emission,
simulation — and then checks the output against a reference computed
here, never by the code under test:

* permutation circuits: the MCT cascade is evaluated on every input by
  :func:`mct_image` (not ``ReversibleCircuit.permutation()``), and the
  1024-shot mode must be ``pi(0)`` on the data lines with ancillas at 0;
* hidden shift: the 1024-shot mode must be the known shift;
* emitted OpenQASM 2 must parse back gate for gate.

Why each workload exists, and which layer it isolates, is written in
``README.md`` next to this file.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Sequence

import repro
from repro.algorithms.hidden_shift import hidden_shift_circuit
from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.compiler import CompilerSession
from repro.engines import NoiseModel
from repro.pipeline.cache import PassCache

SHOTS = 1024

#: A mild device model: keeps p(shift) near 0.7 on the 6-qubit
#: instances (the ``ibm_qe_2018`` rates drive them to ~0.02, where a
#: mode check means nothing).
MILD_NOISE = NoiseModel(p1=2e-4, p2=2e-3, p_meas=0.01, p_multi=4e-3)

#: The sweep grid of ``sweep_verify``: synthesis x optimization level.
SWEEP_GRID = {
    "synthesis": ["tbs", "dbs"],
    "optimization_level": [1, 2],
}


class Meter:
    """Per-job wall-time accumulators for ``compile_s``/``simulate_s``.

    Each phase is also a span named after the entry point it wraps, so
    the traced run and the timed run share one set of call sites.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.compile_s = 0.0
        self.simulate_s = 0.0

    @contextmanager
    def _timed(self, total: str, span: str):
        started = perf_counter()
        try:
            with self.tracer.span(span):
                yield
        finally:
            setattr(self, total, getattr(self, total) + perf_counter() - started)

    def compile(self, span: str):
        """Time the body into ``compile_s`` under span ``span``."""
        return self._timed("compile_s", span)

    def simulate(self):
        """Time the body into ``simulate_s`` (``CompilationResult.simulate``)."""
        return self._timed("simulate_s", "compiler.simulate")


# ----------------------------------------------------------------------
# independent references
# ----------------------------------------------------------------------
def mct_image(gates, lines: int) -> List[int]:
    """Evaluate an MCT cascade on every input; return the output table."""
    compiled = []
    for gate in gates:
        care = positive = 0
        for control, polarity in zip(gate.controls, gate.polarity):
            care |= 1 << control
            if polarity:
                positive |= 1 << control
        compiled.append((care, positive, 1 << gate.target))
    image = []
    for value in range(1 << lines):
        for care, positive, flip in compiled:
            if value & care == positive:
                value ^= flip
        image.append(value)
    return image


def same_gates(parsed, circuit) -> bool:
    """Whether two circuits hold the same gates (params to 1e-9)."""
    if len(parsed.gates) != len(circuit.gates):
        return False
    for a, b in zip(parsed.gates, circuit.gates):
        if (a.name, a.targets, a.controls, a.cbits) != (
            b.name, b.targets, b.controls, b.cbits
        ):
            return False
        if len(a.params) != len(b.params) or any(
            abs(x - y) > 1e-9 for x, y in zip(a.params, b.params)
        ):
            return False
    return True


def emit_roundtrip(tracer, result) -> bool:
    """Emit qasm2 and parse it back; return whether it matches."""
    with tracer.span("emit.qasm2"):
        text = result.emit("qasm2")
    with tracer.span("emit.parse"):
        parsed = repro.emit.parse(text, "qasm2")
    return same_gates(parsed, result.circuit)


def cascade_ok(result, spec: Sequence[int]) -> bool:
    """Whether the compiled MCT cascade realizes the permutation ``spec``."""
    cascade = result.reversible
    return mct_image(cascade.gates, cascade.num_lines) == list(spec)


def mode(simulation) -> int:
    """Most frequent outcome of a simulation result."""
    return max(simulation.counts, key=simulation.counts.get)


# ----------------------------------------------------------------------
# seeded input generation (the program only ever sees these inputs)
# ----------------------------------------------------------------------
def random_permutation(rng: random.Random, lines: int) -> List[int]:
    """A uniformly random permutation of ``2**lines`` values."""
    image = list(range(1 << lines))
    rng.shuffle(image)
    return image


def cube_table(half: int, variables: Sequence[int]) -> TruthTable:
    """The positive cube AND(variables) as a truth table over ``half``."""
    mask = sum(1 << v for v in variables)
    bits = 0
    for y in range(1 << half):
        if y & mask == mask:
            bits |= 1 << y
    return TruthTable(half, bits)


def wide_instance(rng: random.Random, half: int, degree: int) -> HiddenShiftInstance:
    """MM instance with identity pi and a single-cube h (cheap oracles).

    The shift has exactly ``half`` of its ``2 * half`` bits set, so the
    shift's X layers are the same size on every instance and seed.
    """
    pi = BitPermutation(list(range(1 << half)))
    h = cube_table(half, rng.sample(range(half), degree))
    shift = sum(1 << bit for bit in rng.sample(range(2 * half), half))
    return HiddenShiftInstance(MaioranaMcFarland(pi, h), shift)


def noisy_instance(rng: random.Random, pi: Sequence[int]) -> HiddenShiftInstance:
    """MM instance with the given pi, a random h and a random shift."""
    half = len(pi).bit_length() - 1
    h = TruthTable(half, rng.getrandbits(1 << half))
    return HiddenShiftInstance(
        MaioranaMcFarland(BitPermutation(pi), h),
        rng.randrange(1 << (2 * half)),
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Outcome(NamedTuple):
    """What one job produced: output cost and the reference verdict."""

    gates: int
    t_count: int
    ok: bool


class Workload:
    """A seeded corpus of jobs plus the untimed hooks around them."""

    name = ""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.jobs: List[Any] = []
        self.warmup: Any = None

    def prepare(self) -> None:
        """Set-up work beyond corpus generation (timed as set-up)."""

    def before_pass(self) -> None:
        """Untimed reset run before every pass over the corpus."""

    def run(self, job: Any, index: int, meter: Meter) -> Outcome:
        """Run one job from workload in to counts out, then check it."""
        raise NotImplementedError

    def sim_seed(self, index: int) -> int:
        """Sampling seed of job ``index`` (fixed per workload seed)."""
        return self.seed * 1009 + index


class PermCompile(Workload):
    """Random 7-line permutations through the Eq. 5 Clifford+T flow."""

    name = "perm_compile"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        lines, count = (4, 2) if tiny else (7, 6)
        self.jobs = [random_permutation(self.rng, lines) for _ in range(count)]
        self.warmup = random_permutation(self.rng, lines)

    def run(self, job, index, meter):
        tracer = meter.tracer
        with meter.compile("compiler.facade"):
            result = repro.compile(
                job, target="clifford_t", cache=None, verify="off"
            )
        ok = emit_roundtrip(tracer, result)
        with tracer.span("emit.qsharp"):
            qsharp = result.emit("qsharp")
        with meter.simulate():
            simulation = result.simulate(shots=SHOTS, seed=self.sim_seed(index))
        with tracer.span("bench.check"):
            # the mode is pi(0) on the data lines with every ancilla at 0
            ok = ok and "operation" in qsharp and cascade_ok(result, job)
            ok = ok and mode(simulation) == job[0]
        metrics = result.metrics()
        return Outcome(metrics["gates"], metrics["t_count"], ok)


class _RecordingCache(PassCache):
    """A private cache that remembers every store, to replay it later."""

    def __init__(self) -> None:
        super().__init__()
        self.stores: List[tuple] = []

    def put(self, key, outputs, details, verified=False):
        self.stores.append((key, outputs, details, verified))
        super().put(key, outputs, details, verified=verified)


class SweepVerify(Workload):
    """Verified, cached sweeps over 5-line permutations.

    Set-up computes the grid of every other permutation into a private
    cache; each pass starts from a copy of exactly that cache, so the
    timed sweep replays half the points and computes, verifies and
    stores the other half — the same mix on every pass.
    """

    name = "sweep_verify"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        lines, count = (3, 2) if tiny else (5, 6)
        self.jobs = [random_permutation(self.rng, lines) for _ in range(count)]
        self.warmup = random_permutation(self.rng, lines)
        self.session = None
        self._prefilled: List[tuple] = []

    def _session(self, cache: PassCache) -> CompilerSession:
        return CompilerSession(
            target="clifford_t", verify="auto", cache=cache, max_workers=1
        )

    def prepare(self) -> None:
        recorder = _RecordingCache()
        session = self._session(recorder)
        for spec in self.jobs[::2]:
            session.sweep(SWEEP_GRID, base=spec)
        self._prefilled = recorder.stores

    def before_pass(self) -> None:
        cache = PassCache()
        for key, outputs, details, verified in self._prefilled:
            cache.put(key, outputs, details, verified=verified)
        self.session = self._session(cache)

    def run(self, job, index, meter):
        with meter.compile("compiler.sweep"):
            sweep = self.session.sweep(SWEEP_GRID, base=job)
        ok = True
        gates = t_count = 0
        for point in sweep:
            with meter.simulate():
                simulation = point.result.simulate(
                    shots=SHOTS, seed=self.sim_seed(index)
                )
            with meter.tracer.span("bench.check"):
                ok = ok and cascade_ok(point.result, job)
                ok = ok and mode(simulation) == job[0]
            metrics = point.result.metrics()
            gates += metrics["gates"]
            t_count += metrics["t_count"]
        return Outcome(gates, t_count, ok)


class ShiftWide(Workload):
    """22-qubit Maiorana-McFarland hidden shift (Fig. 7/8 structure)."""

    name = "shift_wide"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        # half = 11 keeps the ESOP of h on the greedy polarity search;
        # at half <= 10 the exhaustive search costs ~1.5 s per oracle
        half, count, degree = (3, 2, 2) if tiny else (11, 3, 3)
        self.jobs = [wide_instance(self.rng, half, degree) for _ in range(count)]
        self.warmup = wide_instance(self.rng, half, degree)

    def run(self, job, index, meter):
        with meter.compile("algorithms.oracle_build"):
            built = hidden_shift_circuit(job, method="mm")
        with meter.compile("compiler.facade"):
            result = repro.compile(built.circuit, target="clifford_t", cache=None)
        with meter.simulate():
            simulation = result.simulate(shots=SHOTS, seed=self.sim_seed(index))
        ok = mode(simulation) == job.shift
        metrics = result.metrics()
        return Outcome(metrics["gates"], metrics["t_count"], ok)


#: The paper's Fig. 4 program: f = inner product on 2+2 variables, s = 1.
FIG4 = "fig4"


class ShiftNoisy(Workload):
    """6-qubit MM instances on both noisy engines, plus Fig. 4 on ibm_qe5."""

    name = "shift_noisy"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        half, count = (2, 2) if tiny else (3, 36)
        # pi dominates an instance's size (gate-count CV ~0.27 per
        # instance), so the pis come from one fixed pool and the seed
        # draws h, the shift and the sampling seeds: the corpus changes
        # with the seed while its total work stays put
        pool = random.Random("shift_noisy:pi")
        pis = [random_permutation(pool, half) for _ in range(count + 1)]
        self.jobs: List[Any] = [noisy_instance(self.rng, pi) for pi in pis[:-1]]
        self.jobs.append(FIG4)
        self.warmup = noisy_instance(self.rng, pis[-1])

    def run(self, job, index, meter):
        if job == FIG4:
            return self._fig4(index, meter)
        with meter.compile("algorithms.oracle_build"):
            built = hidden_shift_circuit(job, method="mm")
        with meter.compile("compiler.facade"):
            result = repro.compile(built.circuit, target="clifford_t", cache=None)
        ok = emit_roundtrip(meter.tracer, result)
        seed = self.sim_seed(index)
        for engine in ("density_matrix", "monte_carlo"):
            with meter.simulate():
                simulation = result.simulate(
                    engine=engine, shots=SHOTS, noise=MILD_NOISE, seed=seed
                )
            ok = ok and mode(simulation) == job.shift
        metrics = result.metrics()
        return Outcome(metrics["gates"], metrics["t_count"], ok)

    def _fig4(self, index, meter):
        instance = HiddenShiftInstance(MaioranaMcFarland.inner_product(2), 1)
        with meter.compile("algorithms.oracle_build"):
            built = hidden_shift_circuit(instance, method="mm")
        with meter.compile("compiler.facade"):
            # routed for the bowtie chip; simulated exactly under the
            # target's own qe5 noise preset (Fig. 6: mode 1, p ~ 0.68)
            result = repro.compile(built.circuit, target="ibm_qe5", cache=None)
        ok = emit_roundtrip(meter.tracer, result)
        with meter.simulate():
            simulation = result.simulate(shots=SHOTS, seed=self.sim_seed(index))
        ok = ok and mode(simulation) == instance.shift
        metrics = result.metrics()
        return Outcome(metrics["gates"], metrics["t_count"], ok)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PermCompile, SweepVerify, ShiftWide, ShiftNoisy)
}
