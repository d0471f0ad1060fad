"""Golden digests of the functional record phase.

Lock-step timing, :func:`~repro.timing.runner.record_window` and the
differential fuzz oracle all drive the same ``Machine.step``, so a
wrong interpreter change would shift every path together and no
cross-path comparison could see it.  These tests pin the recorded
BRTR bytes (sha256) of every scorecard-shaped window, a trap-emulated
program and a few seeded adversarial programs, plus the assembled
``Program.words`` of each Figure-12 build.  A speed change to the
interpreter, the trace writer, the memory loader or the assembler must
leave every digest here unchanged.
"""

import hashlib
import io

import pytest

from repro.core.brr import BranchOnRandomUnit, HardwareCounterUnit
from repro.engine.windows import MATERIALS
from repro.experiments.bench_timing import scorecard_bench_specs
from repro.experiments.fig12 import jvm_window_spec
from repro.isa.asm import assemble
from repro.jvm.benchmarks import FIGURE12_BENCHMARKS
from repro.sim.machine import Machine, MachineError
from repro.sim.trace_io import RecordedTrace, TraceWriter, record_trace
from repro.sim.trap import BrrTrapEmulator
from repro.timing.runner import record_window, replay_window, time_window
from repro.workloads.adversarial import END_MARKER, build_adversarial

FIG12_SPECS = [jvm_window_spec(name, variant, scale=0.25)
               for name in FIGURE12_BENCHMARKS
               for variant in ("none", "cbs", "brr")]
FIG13_SPECS = [spec for spec in scorecard_bench_specs()
               if spec.kind == "microbench"]

#: sha256 of the ``record_window`` BRTR bytes, by window label.
TRACE_DIGESTS = {
    "jvm(benchmark=bloat, variant=none, scale=0.25)":
        "6a7000921fae09f1c6625bd60b5cb3de76e45e6ef9cc4455f9beef94ee51749f",
    "jvm(benchmark=bloat, variant=cbs, interval=1024, scale=0.25)":
        "31711b233af94b4e944991d631a8bfb3b8d63b357f1de246ee43c89a46e097bb",
    "jvm(benchmark=bloat, variant=brr, interval=1024, scale=0.25)":
        "d4377b413a4292bda36e38887abb05d3cd15bafcf893fc533e1c6aeee3dcf490",
    "jvm(benchmark=fop, variant=none, scale=0.25)":
        "b75629fccb6a8d3321f2573f6df25f77b8fdf96227598fbcc04dbf96d6e90d0f",
    "jvm(benchmark=fop, variant=cbs, interval=1024, scale=0.25)":
        "6dc290022b1cca74d27f6803b81d8b152d41b08c9553a4cbe8f16b0e1d658544",
    "jvm(benchmark=fop, variant=brr, interval=1024, scale=0.25)":
        "141d034307fe4f385fe0d7c068f08e04c29c994427863cdf0f0d724d7dea0a46",
    "jvm(benchmark=luindex, variant=none, scale=0.25)":
        "65c4e77ef3cb464b4ba43902dc74e5fbb2f16407667385173d269f1e20638cd9",
    "jvm(benchmark=luindex, variant=cbs, interval=1024, scale=0.25)":
        "c79d664fadcab5206d71c812f13365d5cc0ac9ba90c06e32e78f6051573a4787",
    "jvm(benchmark=luindex, variant=brr, interval=1024, scale=0.25)":
        "be7f532a6e295a3d927505b3cd5a0013af17b7c924e496b75b19b1bd082a64fe",
    "jvm(benchmark=lusearch, variant=none, scale=0.25)":
        "980cc2aaaf9a09fd16d863edef1cc62515db5aa406371396cae5f43ef13d7164",
    "jvm(benchmark=lusearch, variant=cbs, interval=1024, scale=0.25)":
        "903cec67e5e2223fabb4faf98fc8d4f333afb8237afc587f3857b5197307d083",
    "jvm(benchmark=lusearch, variant=brr, interval=1024, scale=0.25)":
        "b7498acddae31d9626542a6612dc4500bb63e75368c517d827d2ef24ffce4259",
    "jvm(benchmark=jython, variant=none, scale=0.25)":
        "1fc97d0a2c912f413ff6935b470217c7fa2f710db962613847e444f01e286669",
    "jvm(benchmark=jython, variant=cbs, interval=1024, scale=0.25)":
        "05d9e9d7a347cc5f47be77835721c4b42b5d79cdb335dc4de3901677bf40771c",
    "jvm(benchmark=jython, variant=brr, interval=1024, scale=0.25)":
        "80f7d73bb26dafbf2081753f69e6a6411ce6f921055477f7e578c2276e8c50ff",
    "microbench(variant=no-dup, kind=cbs, interval=1024, seed=0, n_chars=600)":
        "20dabd7b34918183234d31ad72bb06f5922ec30053cb3c3ac91ff05924691dec",
    "microbench(variant=full-dup, kind=cbs, interval=1024, seed=0, n_chars=600)":
        "0c395bcf17deb40a3c0a1ccdd1f5f970ded3d14b2d04ad5107c8e2025c2d4033",
    "microbench(variant=no-dup, kind=brr, interval=1024, seed=0, n_chars=600)":
        "2d532438fb53039b966c418d1c60f375aabe4eb38d608b05d5e85450d4f78f40",
    "microbench(variant=full-dup, kind=brr, interval=1024, seed=0, n_chars=600)":
        "313bfeca92bf420148e9af98e06442d188d04cd8b1808b3c869a01ea90210075",
}

#: sha256 of each Figure-12 build's ``Program.words`` (u32 LE).
WORDS_DIGESTS = {
    "jvm(benchmark=bloat, variant=none, scale=0.25)":
        "3502d6d1fb2809a624f11fc9ab6f6b8dc87598f3d484bb63474959ea6f95d5d4",
    "jvm(benchmark=bloat, variant=cbs, interval=1024, scale=0.25)":
        "da34c815b6213dc986c045ae90d2c1cb7154321a2f892883cba7a3618c1bf767",
    "jvm(benchmark=bloat, variant=brr, interval=1024, scale=0.25)":
        "6d4f51ee906b7ffe83e596e08a6220f97280c82f6c77a25aa21ab86e3a50832f",
    "jvm(benchmark=fop, variant=none, scale=0.25)":
        "fa0ecd401473b8bee4ed1ee3feafcf8b9b8c6b11a3d16fa7d6236e0c84558c93",
    "jvm(benchmark=fop, variant=cbs, interval=1024, scale=0.25)":
        "2091fda0d8be3d443ced5d7be0a90538fc9ec70769b9c1f56a3a3282b0b3c461",
    "jvm(benchmark=fop, variant=brr, interval=1024, scale=0.25)":
        "89454bb351dabcb747c7fafc2708a12d35807469c719dc0f52950eab49ca8c1e",
    "jvm(benchmark=luindex, variant=none, scale=0.25)":
        "89a3146dfd15314b55661d79c0a42907e2dd3109a801c334f1ea18363281ec2f",
    "jvm(benchmark=luindex, variant=cbs, interval=1024, scale=0.25)":
        "4b607057ce2385046f6c919b67c2b5324684d1de0fc3ec441bd51a006caa5100",
    "jvm(benchmark=luindex, variant=brr, interval=1024, scale=0.25)":
        "3524e60e05cc5d3a81f2274060c01e11cda64aff98adbcdcd2da3652a8f58c18",
    "jvm(benchmark=lusearch, variant=none, scale=0.25)":
        "6b24b4b5e86041b232eba6354144ccf8dbdbe84959c5e7e04cee56cdbef8ca23",
    "jvm(benchmark=lusearch, variant=cbs, interval=1024, scale=0.25)":
        "b808411aeafb3073161b7fab0a05c75948519c986eaedc4d715ee6835cfbdf95",
    "jvm(benchmark=lusearch, variant=brr, interval=1024, scale=0.25)":
        "b544cf91b9a89a488086bd6f6c9df65d6430c1df9bc4df09176c3a087b7e0f0f",
    "jvm(benchmark=jython, variant=none, scale=0.25)":
        "cd77e3ecf608766950a1800379c781ae9acb4d5d28434b6d966e957527d7f90f",
    "jvm(benchmark=jython, variant=cbs, interval=1024, scale=0.25)":
        "daa6dcceb71726a3b2ef12daefb41a3b4d36b24077fc021c233914328b123253",
    "jvm(benchmark=jython, variant=brr, interval=1024, scale=0.25)":
        "75c3a382faa56ce2944a069f59a11719f90a2011508a53fc80dbdcf739c6457c",
}

#: Seeded adversarial programs (generator knobs), recorded natively.
ADVERSARIAL = {
    "adv-cbs-s3": dict(scheme="cbs", density=0.5, seed=3),
    "adv-brr-s4": dict(scheme="brr", density=0.25, seed=4),
    "adv-mixed-s5": dict(scheme="mixed", density=0.75, seed=5),
    "adv-mixed-s6-stress": dict(scheme="mixed", density=0.5, seed=6,
                                history_stress=2, call_depth=2),
}

ADVERSARIAL_DIGESTS = {
    "adv-cbs-s3":
        "09272f7df405691a33432d18948132e90e3ac0d5ced8e2dfb7b3da859f241e04",
    "adv-brr-s4":
        "7e41b4d01da80745beda89ff5194314b8af5e51dbd386ab8a0e7a7aa122cbe4f",
    "adv-mixed-s5":
        "365f05b6dcfe400cc71e8fd03c5115eba6535dd352f28027eab7636364ec3901",
    "adv-mixed-s6-stress":
        "d9e387d1a7849a34ef6e1cb70a6040eff34c692c7a573e63e9d15babba34f82b",
}

#: The ``brr_mode="trap"`` recording (trapped records carry no instr).
TRAP_DIGEST = (
    "c36f8ecb2e710b76d8bce1bf70a1013f146e6ceef76c8398ce4b7a25ffbfbeb1")

#: The mid-run ``patch_brr_frequency`` recording.
PATCH_DIGEST = (
    "bb36ee0bcb06f79725a7cec4297e72459882fa42ca3121d6d3596b9a0349ca00")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record_bytes(materials, tmp_path) -> bytes:
    path = tmp_path / "window.brtr"
    record_window(materials["program"], materials["end"],
                  brr_unit=materials["brr_unit"],
                  setup=materials["setup"], path=path)
    return path.read_bytes()


#: Every ``TraceColumns`` field the replay kernels read.
COLUMN_FIELDS = ("n_records", "pc", "word_id", "next_pc", "taken",
                 "mem_addr", "instrs", "has_trapped")


def _assert_columns_match(recorded, data: bytes) -> None:
    """The recorder's columns equal a fresh decode of its bytes."""
    decoded = RecordedTrace(data).columns()
    assert recorded is not decoded
    for field in COLUMN_FIELDS:
        assert getattr(recorded, field) == getattr(decoded, field), field


def _words_bytes(program) -> bytes:
    return b"".join(word.to_bytes(4, "little") for word in program.words)


class TestScorecardRecordings:
    @pytest.mark.parametrize("spec", FIG12_SPECS + FIG13_SPECS,
                             ids=[spec.label()
                                  for spec in FIG12_SPECS + FIG13_SPECS])
    def test_trace_bytes_pinned(self, spec, tmp_path):
        materials = MATERIALS[spec.kind](spec.params_dict())
        data = _record_bytes(materials, tmp_path)
        assert _sha(data) == TRACE_DIGESTS[spec.label()]

    @pytest.mark.parametrize("spec", FIG12_SPECS,
                             ids=[spec.label() for spec in FIG12_SPECS])
    def test_program_words_pinned(self, spec):
        materials = MATERIALS["jvm"](spec.params_dict())
        assert _sha(_words_bytes(materials["program"])) \
            == WORDS_DIGESTS[spec.label()]

    def test_in_memory_recording_matches_file(self, tmp_path):
        materials = MATERIALS["jvm"](FIG12_SPECS[0].params_dict())
        trace = record_window(materials["program"], materials["end"],
                              brr_unit=materials["brr_unit"],
                              setup=materials["setup"])
        fresh = MATERIALS["jvm"](FIG12_SPECS[0].params_dict())
        assert trace._data == _record_bytes(fresh, tmp_path)


class TestAdversarialRecordings:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_native_trace_pinned(self, name, tmp_path):
        params = dict(ADVERSARIAL[name])
        materials = MATERIALS["adversarial"](params)
        assert _sha(_record_bytes(materials, tmp_path)) \
            == ADVERSARIAL_DIGESTS[name]

    def test_trap_mode_trace_pinned(self, tmp_path):
        adversarial = build_adversarial(scheme="brr", density=0.5, seed=7)
        emulator = BrrTrapEmulator(adversarial.brr_unit())

        def setup(machine):
            emulator.install(machine)
            adversarial.setup(machine)

        path = tmp_path / "trap.brtr"
        trace = record_window(adversarial.program("trap"), (END_MARKER, 1),
                              setup=setup, path=path)
        assert emulator.traps > 0
        records = list(trace.records())
        assert sum(record.instr is None for record in records) \
            == emulator.traps
        assert _sha(path.read_bytes()) == TRAP_DIGEST


class TestRecordedColumns:
    """``record_window`` fills the replay columns in the pass that
    writes the bytes; over the corpus above they must equal what
    :meth:`RecordedTrace.columns` decodes from those bytes."""

    @pytest.mark.parametrize("spec", FIG12_SPECS + FIG13_SPECS,
                             ids=[spec.label()
                                  for spec in FIG12_SPECS + FIG13_SPECS])
    def test_scorecard_columns(self, spec):
        materials = MATERIALS[spec.kind](spec.params_dict())
        trace = record_window(materials["program"], materials["end"],
                              brr_unit=materials["brr_unit"],
                              setup=materials["setup"])
        _assert_columns_match(trace.columns(), trace._data)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_columns(self, name):
        materials = MATERIALS["adversarial"](dict(ADVERSARIAL[name]))
        trace = record_window(materials["program"], materials["end"],
                              brr_unit=materials["brr_unit"],
                              setup=materials["setup"])
        _assert_columns_match(trace.columns(), trace._data)

    def test_trap_mode_columns(self, tmp_path):
        adversarial = build_adversarial(scheme="brr", density=0.5, seed=7)
        emulator = BrrTrapEmulator(adversarial.brr_unit())

        def setup(machine):
            emulator.install(machine)
            adversarial.setup(machine)

        path = tmp_path / "trap.brtr"
        trace = record_window(adversarial.program("trap"), (END_MARKER, 1),
                              setup=setup, path=path)
        columns = trace.columns()
        assert columns.has_trapped
        assert list(columns.word_id).count(-1) == emulator.traps
        _assert_columns_match(columns, path.read_bytes())


#: A loop whose brr starts at 1/8 and is patched to 1/2 mid-run.
BRR_LOOP = """
    li r1, 400
    li r2, 0
loop:
    brr 1/8, hit
back:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
hit:
    addi r2, r2, 1
    jmp back
"""


class TestInterpreterBehaviours:
    def test_patch_brr_frequency_mid_run(self):
        program = assemble(BRR_LOOP)
        seen = []

        class Probe(HardwareCounterUnit):
            def resolve(self, field):
                seen.append(field)
                return super().resolve(field)

        machine = Machine(program, brr_unit=Probe())
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        for _ in range(600):
            writer.append(machine.step())
        before = machine.regs[2]
        brr_addr = program.address_of("loop")
        machine.patch_brr_frequency(brr_addr, 0)
        while not machine.halted:
            writer.append(machine.step())
        writer.finish()
        # 1/8 is field 2; the patch takes effect on the next fetch.
        assert set(seen[:10]) == {2}
        assert seen[-1] == 0 and 2 in seen and 0 in seen
        assert machine.regs[2] > before + 50
        data = buffer.getvalue()
        trace = RecordedTrace(data)
        freqs = {record.instr.freq for record in trace.records()
                 if record.instr is not None and record.pc == brr_addr}
        assert freqs == {0, 2}
        assert _sha(data) == PATCH_DIGEST

    def test_unhandled_trap_raises(self):
        machine = Machine(assemble("nop\nbrr 3, t\nnop\nt: halt",
                                   brr_mode="trap"))
        machine.step()
        with pytest.raises(MachineError):
            machine.step()
        assert machine.pc == 4 and machine.instret == 1

    def test_handled_trap_record_has_no_instr(self):
        machine = Machine(assemble("brr 0, t\nnop\nt: halt",
                                   brr_mode="trap"))
        BrrTrapEmulator(BranchOnRandomUnit()).install(machine)
        record = machine.step()
        assert record.instr is None and record.pc == 0
        assert record.next_pc in (8, 12)
        assert record.taken == (record.next_pc != 8)

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_predecode_table_honours_limit(self, limit):
        program = assemble(BRR_LOOP)
        bounded = Machine(program, brr_unit=HardwareCounterUnit(),
                          decode_cache_limit=limit)
        reference = Machine(program, brr_unit=HardwareCounterUnit())
        while not reference.halted:
            expected = reference.step()
            got = bounded.step()
            assert len(bounded._decode_cache) <= limit
            assert got == expected
        assert bounded.halted and bounded.regs == reference.regs


#: A loop with every step shape (ALU, load/store, taken and untaken
#: branches, brr, call and return) whose brr a marker callback patches.
PATCHED_LOOP = """
    li r1, 300
    li r4, 0x8000
loop:
    marker 1
    brr 1/8, hit
back:
    sw r1, 0(r4)
    lw r3, 0(r4)
    jal bump
    addi r1, r1, -1
    bne r1, r0, loop
    marker 2
    halt
hit:
    addi r2, r2, 1
    jmp back
bump:
    addi r5, r5, 1
    ret
"""


class TestFusedRecorder:
    """``record_trace`` against the reference pair it replaces,
    ``TraceWriter.append(machine.step())``, on one machine state."""

    @staticmethod
    def _machine(program, limit):
        machine = Machine(program, brr_unit=HardwareCounterUnit(),
                          decode_cache_limit=limit)
        brr_addr = program.address_of("loop") + 4

        def patch(machine, marker_id, count):
            if marker_id == 1 and count == 100:
                machine.patch_brr_frequency(brr_addr, 0)

        machine.on_marker(patch)
        return machine

    @pytest.mark.parametrize("limit", [None, 1, 3])
    def test_matches_reference_pair(self, limit):
        program = assemble(PATCHED_LOOP)
        reference = self._machine(program, limit)
        expected = io.BytesIO()
        writer = TraceWriter(expected)
        while reference.marker_counts.get(2, 0) < 1:
            writer.append(reference.step())
        writer.finish()

        fused = self._machine(program, limit)
        stream = io.BytesIO()
        columns = record_trace(fused, stream, (2, 1), max_steps=100_000)
        assert stream.getvalue() == expected.getvalue()
        _assert_columns_match(columns, expected.getvalue())
        for attr in ("pc", "regs", "instret", "marker_counts", "halted"):
            assert getattr(fused, attr) == getattr(reference, attr), attr
        if limit is not None:
            assert len(fused._decode_cache) <= limit

    def test_step_limit_and_early_halt(self):
        program = assemble(PATCHED_LOOP)
        with pytest.raises(RuntimeError, match="not reached within 50"):
            record_trace(self._machine(program, None), io.BytesIO(),
                         (2, 1), max_steps=50)
        with pytest.raises(RuntimeError, match="halted before marker 3"):
            record_trace(self._machine(program, None), io.BytesIO(),
                         (3, 1), max_steps=100_000)


#: One block of PC-relative control flow; every copy assembles to the
#: same words (``brr``, ``bne``, ``beq``, ``jal`` and ``jmp`` offsets
#: are equal), so one word has a different absolute target per copy.
REPEATED_BLOCK = """
b{i}:
    brr 1/4, s{i}
    addi r2, r2, 1
s{i}:
    bne r1, r0, t{i}
    addi r5, r5, 1
t{i}:
    beq r0, r0, u{i}
u{i}:
    sw r1, 0(r4)
    lw r3, 0(r4)
    jal f{i}
    jmp v{i}
f{i}:
    addi r6, r6, 1
    ret
v{i}:
"""

#: A loop over four copies of ``REPEATED_BLOCK``.
REPEATED_WORDS = "\n".join(
    ["    li r1, 40", "    li r4, 0x8000", "loop:", "    marker 1"]
    + [REPEATED_BLOCK.format(i=i) for i in range(4)]
    + ["    addi r1, r1, -1", "    bne r1, r0, loop", "    marker 2",
       "    halt"])


class TestWordKeyedMemo:
    """The front end decodes and encodes once per word: a word shared
    by several PCs must still give each PC its own branch target."""

    @staticmethod
    def _reference(program, limit) -> bytes:
        machine = Machine(program, brr_unit=HardwareCounterUnit(),
                          decode_cache_limit=limit)
        stream = io.BytesIO()
        writer = TraceWriter(stream)
        for _ in range(100_000):
            if machine.marker_counts.get(2, 0) >= 1:
                break
            writer.append(machine.step())
        writer.finish()
        return stream.getvalue()

    def test_copies_share_words_not_targets(self):
        program = assemble(REPEATED_WORDS)
        machine = Machine(program)
        starts = [program.address_of(f"b{i}") for i in range(4)]
        block = (starts[1] - starts[0]) // 4
        for offset in range(block):
            entries = [machine._predecode(start + 4 * offset)
                       for start in starts]
            assert len({entry[9] for entry in entries}) == 1
            targets = [entry[7] - start
                       for entry, start in zip(entries, starts)]
            assert len(set(targets)) == 1
        assert len(machine._word_table) == block

    @pytest.mark.parametrize("limit", [None, 1, 2, 3])
    def test_matches_reference_pair_and_lock_step(self, limit):
        program = assemble(REPEATED_WORDS)
        expected = self._reference(program, None)
        assert self._reference(program, limit) == expected

        machine = Machine(program, brr_unit=HardwareCounterUnit(),
                          decode_cache_limit=limit)
        stream = io.BytesIO()
        columns = record_trace(machine, stream, (2, 1), max_steps=100_000)
        assert stream.getvalue() == expected
        _assert_columns_match(columns, expected)
        if limit is not None:
            assert len(machine._decode_cache) <= limit
            assert len(machine._word_table) <= limit

        trace = RecordedTrace(stream.getvalue())
        trace.adopt_columns(columns)
        lock_step = time_window(program, (1, 1), (2, 1),
                                brr_unit=HardwareCounterUnit())
        replayed = replay_window(trace, (1, 1), (2, 1), program=program)
        assert replayed == lock_step
