"""Tests for the assembler and disassembler."""

import pytest

from repro.isa.asm import AsmError, TRAP_BRR_OPCODE, assemble, parse_freq
from repro.isa.disasm import disassemble, disassemble_word
from repro.isa.instructions import Op, decode
from repro.isa.program import Program


class TestBasicAssembly:
    def test_simple_program(self):
        prog = assemble(
            """
            li   r1, 10
            addi r1, r1, -1
            halt
            """
        )
        assert len(prog) == 3
        ops = [decode(w).op for w in prog.words]
        assert ops == [Op.LI, Op.ADDI, Op.HALT]

    def test_labels_and_branches(self):
        prog = assemble(
            """
            start:
                li   r1, 3
            loop:
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            """
        )
        assert prog.address_of("start") == 0
        assert prog.address_of("loop") == 4
        branch = decode(prog.words[2])
        # Branch at address 8, target 4: word offset (4 - 12)/4 = -2.
        assert branch.op is Op.BNE and branch.imm == -2

    def test_label_on_same_line(self):
        prog = assemble("top: addi r1, r1, 1\n jmp top\n halt")
        assert prog.address_of("top") == 0

    def test_forward_reference(self):
        prog = assemble(
            """
            jmp end
            nop
            end: halt
            """
        )
        jump = decode(prog.words[0])
        assert jump.imm == 1  # skip the nop

    def test_memory_operands(self):
        prog = assemble("lw r2, 8(r3)\n sw r2, -4(sp)\n halt")
        load = decode(prog.words[0])
        store = decode(prog.words[1])
        assert (load.rd, load.ra, load.imm) == (2, 3, 8)
        assert (store.rd, store.ra, store.imm) == (2, 14, -4)

    def test_register_aliases(self):
        prog = assemble("jr lr")
        assert decode(prog.words[0]).ra == 15

    def test_ret_pseudo(self):
        prog = assemble("ret")
        instr = decode(prog.words[0])
        assert instr.op is Op.JR and instr.ra == 15

    def test_mov_pseudo(self):
        prog = assemble("mov r1, r2")
        instr = decode(prog.words[0])
        assert (instr.op, instr.rd, instr.ra, instr.imm) == (Op.ADDI, 1, 2, 0)

    def test_comments_stripped(self):
        prog = assemble("nop ; trailing\n# whole line\nnop # other\nhalt")
        assert len(prog) == 3

    def test_word_directive(self):
        prog = assemble(".word 0xdeadbeef 42")
        assert prog.words == [0xDEADBEEF, 42]

    def test_space_directive(self):
        prog = assemble(".space 3\nhalt")
        assert prog.words[:3] == [0, 0, 0]
        assert prog.address_of is not None

    def test_word_with_label_value(self):
        prog = assemble("entry: nop\n.word entry")
        assert prog.words[1] == 0

    def test_base_address(self):
        prog = assemble("x: halt", base=0x1000)
        assert prog.address_of("x") == 0x1000
        assert prog.end == 0x1004

    def test_source_map(self):
        prog = assemble("nop\nhalt")
        assert prog.source_for(0) == "nop"
        assert prog.source_for(4) == "halt"


class TestBrrSyntax:
    def test_field_value(self):
        prog = assemble("brr 9, t\nt: halt")
        instr = decode(prog.words[0])
        assert instr.op is Op.BRR and instr.freq == 9 and instr.imm == 0

    def test_interval_syntax(self):
        prog = assemble("brr 1/1024, t\nt: halt")
        assert decode(prog.words[0]).freq == 9

    def test_percent_syntax(self):
        prog = assemble("brr 50%, t\nt: halt")
        assert decode(prog.words[0]).freq == 0

    def test_paper_one_percent(self):
        # The paper's Figure 4 example: brr 1%, uncomm.
        assert parse_freq("1%") == 6  # (1/2)^7 = 0.78% is nearest

    def test_brra(self):
        prog = assemble("brra t\nnop\nt: halt")
        instr = decode(prog.words[0])
        assert instr.op is Op.BRRA and instr.imm == 1

    def test_bad_ratio_rejected(self):
        with pytest.raises(AsmError):
            assemble("brr 2/1024, t\nt: halt")


class TestTrapMode:
    def test_brr_becomes_two_words(self):
        prog = assemble("brr 9, t\nnop\nt: halt", brr_mode="trap")
        assert len(prog) == 4
        assert (prog.words[0] >> 26) == TRAP_BRR_OPCODE
        assert (prog.words[0] >> 22) & 0xF == 9
        # Offset word: target 12, fall-through 8 -> +4 bytes.
        assert prog.words[1] == 4

    def test_backward_offset_encoded_twos_complement(self):
        prog = assemble("t: halt\nbrr 0, t", brr_mode="trap")
        # brr at address 4; fall-through 12; target 0 -> offset -12.
        assert prog.words[2] == (-12) & 0xFFFFFFFF

    def test_labels_account_for_two_word_brr(self):
        native = assemble("brr 0, t\nnop\nt: halt")
        trap = assemble("brr 0, t\nnop\nt: halt", brr_mode="trap")
        assert native.address_of("t") == 8
        assert trap.address_of("t") == 12

    def test_brra_lowers_to_jmp(self):
        prog = assemble("brra t\nt: halt", brr_mode="trap")
        assert decode(prog.words[0]).op is Op.JMP

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            assemble("nop", brr_mode="signal")


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError):
            assemble("frobnicate r1")

    def test_undefined_label(self):
        with pytest.raises(AsmError):
            assemble("jmp nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AsmError):
            assemble("x: nop\nx: nop")

    def test_bad_register(self):
        with pytest.raises(AsmError):
            assemble("addi r16, r0, 1")

    def test_bad_mem_operand(self):
        with pytest.raises(AsmError):
            assemble("lw r1, r2")

    def test_error_reports_line_number(self):
        with pytest.raises(AsmError) as info:
            assemble("nop\nbogus r1\nnop")
        assert info.value.line_no == 2

    @pytest.mark.parametrize("statement", [
        "bogus r1",                # unknown mnemonic
        "addi r16, r0, 1",         # bad register
        "lw r1, r2",               # bad memory operand
        "li r1, nowhere",          # undefined symbol
        ".space lots",             # pass-1 (parse) error
        "marker",                  # missing operand
        "beq r1, r2, nowhere",     # PC-relative, never memoised
        "brr 1/3, t",              # bad frequency
    ])
    def test_repeated_bad_statement_fails_at_first_line(self, statement):
        # Statement texts are parsed and encoded once per assemble()
        # call; a repeated malformed text still fails where it first
        # appears, after good statements with the same shape.
        source = "\n".join([
            "t: nop", "addi r1, r1, 1", "addi r1, r1, 1",
            f"  {statement}  ; first", "addi r1, r1, 1",
            f"{statement}", "halt",
        ])
        with pytest.raises(AsmError) as info:
            assemble(source)
        assert info.value.line_no == 4
        assert info.value.line.endswith("; first")

    def test_repeated_statements_encode_per_address(self):
        source = "loop: addi r1, r1, 1\nbne r1, r0, loop\n" \
                 "addi r1, r1, 1\nbne r1, r0, loop\nli r2, loop\nli r2, loop"
        prog = assemble(source, base=0x40)
        assert prog.words[0] == prog.words[2]
        assert prog.words[4] == prog.words[5]
        assert decode(prog.words[1]).imm == -2
        assert decode(prog.words[3]).imm == -4
        assert prog.source_map[3] == "bne r1, r0, loop"


class TestProgramImage:
    def test_word_at(self):
        prog = assemble("nop\nhalt", base=0x100)
        assert decode(prog.word_at(0x104)).op is Op.HALT

    def test_word_at_out_of_range(self):
        prog = assemble("halt")
        with pytest.raises(IndexError):
            prog.word_at(4)

    def test_word_at_misaligned(self):
        prog = assemble("nop\nhalt")
        with pytest.raises(ValueError):
            prog.word_at(2)

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            Program([0], base=2)

    def test_missing_label(self):
        prog = assemble("halt")
        with pytest.raises(KeyError):
            prog.address_of("missing")


class TestDisassembler:
    def test_roundtrip_through_assembler(self):
        source = """
        start:
            li   r1, 100
            addi r2, r1, -5
            lw   r3, 8(r2)
            sw   r3, 0(sp)
            beq  r1, r2, start
            brr  1/512, start
            jal  start
            jr   lr
            marker 7
            halt
        """
        prog = assemble(source)
        listing = disassemble(prog)
        assert "li r1, 100" in listing
        assert "brr 1/512" in listing
        assert "marker 7" in listing
        assert "start:" in listing

    def test_disassemble_reassembles_identically(self):
        source = "li r1, 5\nx: addi r1, r1, -1\nbne r1, r0, x\nhalt"
        prog = assemble(source)
        listing = disassemble(prog)
        # Strip addresses, reassemble, compare words.
        lines = []
        for line in listing.splitlines():
            if line.endswith(":"):
                lines.append(line)
            else:
                lines.append(line.split(":", 1)[1])
        reassembled = assemble("\n".join(lines))
        assert reassembled.words == prog.words

    def test_invalid_word_renders_as_data(self):
        assert disassemble_word(0x3D << 26) == f".word {0x3D << 26:#010x}"

    def test_brr_relative_without_addr(self):
        prog = assemble("brr 0, t\nt: halt")
        text = disassemble_word(prog.words[0])
        assert text == "brr 1/2, .+0"
