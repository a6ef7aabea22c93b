"""``designer`` — one (PRM, device) pair through the whole designer path.

Build the netlist, synthesize, run the cost models, generate the partial
bitstream, serialize and parse it, configure it into a configuration
memory, then relocate it to a seeded compatible region and configure
that too.  Bitgen, parse and relocation do nearly all of the work; the
cost model barely registers, which is the paper's point.

A pass is the five PRMs that place on both catalog devices (the paper's
FIR/MIPS/SDRAM plus the AES and UART extras) on XC5VLX110T and
XC6VLX75T, in seeded order.  The FFT and matmul extras are left out:
no PRR for them exists on either device, so every op on them would fail
with a typed InfeasiblePlacement.  Each op gets its own PRM name, so the
cost model's memo caches and the frame payload seed are fresh per op.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from repro import bitgen, core, relocation, synth, workloads
from repro.devices import (
    BLOCK_TYPE_BRAM_CONTENT,
    BLOCK_TYPE_CONFIG,
    XC5VLX110T,
    XC6VLX75T,
)
from repro.faults import payload_crc

from .batch import Context

NAME = "designer"
OP_DEFINITION = (
    "one (PRM, device) pair: build, synth, evaluate_prm, generate, to_bytes, "
    "parse, configure, relocate, configure"
)

DEVICES = (XC5VLX110T, XC6VLX75T)
BUILDERS = {
    "fir": lambda family: workloads.build_fir(family),
    "mips": lambda family: workloads.build_mips(family),
    "sdram": lambda family: workloads.build_sdram(family),
    "aes": lambda family: workloads.build_aes(),
    "uart": lambda family: workloads.build_uart(),
}

SHIMS = {
    "workloads.build_fir": ("repro.workloads.fir", "build_fir"),
    "workloads.build_mips": ("repro.workloads.mips", "build_mips"),
    "workloads.build_sdram": ("repro.workloads.sdram", "build_sdram"),
    "workloads.build_aes": ("repro.workloads.extras", "build_aes"),
    "workloads.build_uart": ("repro.workloads.extras", "build_uart"),
    "synth.synthesize": ("repro.synth.xst", "synthesize"),
    "core.evaluate_prm": ("repro.core.api", "evaluate_prm"),
    "bitgen.generate": ("repro.bitgen.generator", "generate_partial_bitstream"),
    "bitgen.to_bytes": ("repro.bitgen.generator", "PartialBitstream.to_bytes"),
    "bitgen.parse": ("repro.bitgen.parser", "parse_bitstream"),
    "relocation.configure": ("repro.relocation.memory", "ConfigMemory.configure"),
    "relocation.find_compatible_regions": (
        "repro.relocation.relocate", "find_compatible_regions"),
    "relocation.relocate": ("repro.relocation.relocate", "relocate_bitstream"),
    "faults.payload_crc": ("repro.faults.reliable", "payload_crc"),
}


@dataclass(frozen=True)
class Op:
    builder: str
    device_index: int
    name: str
    pick: float  #: where in the compatible-region list the relocation lands


@dataclass
class Output:
    model_bytes: int
    generated: bytes
    parsed_bytes: int
    source: tuple  #: (configuration memory, region)
    target: tuple
    words: int


def make_pass(seed: int, rng, index: int) -> list[Op]:
    pairs = [(b, d) for b in BUILDERS for d in range(len(DEVICES))]
    rng.shuffle(pairs)
    return [
        Op(builder, device, f"{builder}.{index}.{device}.{rng.getrandbits(24):06x}",
           rng.random())
        for builder, device in pairs
    ]


def warm_up(rng) -> None:
    for op in make_pass(0, rng, -1)[:2]:
        run_op(op, Context(None, None))


def describe(op: Op) -> str:
    return f"{op.name} on {DEVICES[op.device_index].name}"


def op_class(op: Op) -> tuple:
    return (op.builder, op.device_index)


def op_span(op: Op) -> str:
    return "bench.designer_op"


def run_op(op: Op, ctx) -> Output:
    device = DEVICES[op.device_index]
    netlist = BUILDERS[op.builder](device.family)
    prm = replace(synth.synthesize(netlist, device.family).requirements, name=op.name)
    model = core.evaluate_prm(prm, device)
    region = model.placement.region
    stream = bitgen.generate_partial_bitstream(device, region, design_name=op.name)
    data = stream.to_bytes()
    if ctx.plant == "flip-byte":
        middle = len(data) // 2
        data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]
    parsed = bitgen.parse_bitstream(data)
    memory = relocation.ConfigMemory(device)
    memory.configure(data)
    targets = relocation.find_compatible_regions(device, region)
    target = targets[int(op.pick * len(targets))]
    moved = relocation.relocate_bitstream(device, stream, target)
    # A second device instance: the target may overlap the source region.
    moved_memory = relocation.ConfigMemory(device)
    moved_memory.configure(moved.to_bytes())
    return Output(
        model_bytes=model.bitstream.total_bytes,
        generated=data,
        parsed_bytes=parsed.size_bytes,
        source=(memory, region),
        target=(moved_memory, target),
        words=len(stream.words) + len(moved.words),
    )


def _frame_bytes(memory, region) -> bytes:
    words = [
        word
        for block in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT)
        for _, frame in memory.region_frames(region, block)
        for word in frame
    ]
    return struct.pack(f">{len(words)}I", *words)


def check_op(op: Op, out: Output, ctx) -> list[str]:
    """Model bytes == generated bytes == parsed bytes, and the relocated
    frames are bit-identical to the source frames with matching CRCs."""
    problems = []
    if not out.model_bytes == len(out.generated) == out.parsed_bytes:
        problems.append(
            f"model {out.model_bytes} B, generated {len(out.generated)} B, "
            f"parsed {out.parsed_bytes} B"
        )
    source = _frame_bytes(*out.source)
    moved = _frame_bytes(*out.target)
    if source != moved:
        problems.append(
            f"relocated frames in {out.target[1]} differ from {out.source[1]}")
    if payload_crc(source) != payload_crc(moved):
        problems.append("relocated payload CRC differs")
    return problems


def summarize(op: Op, out: Output) -> int:
    return out.words


def units(op: Op, out: Output) -> float:
    return 1.0


def final_checks(records, ctx) -> list[str]:
    return []


def layer_metrics(tracer, records, session) -> dict:
    ops = max(1, len(records))
    words = sum(r.output for r in records)
    bitgen_s = tracer.self_s("bitgen.generate") + tracer.self_s("bitgen.to_bytes")
    return {
        "synth.synthesize.ms": (tracer.mean_ms("synth.synthesize"), "ms"),
        "core.evaluate_prm.ms": (tracer.mean_ms("core.evaluate_prm"), "ms"),
        "bitgen.generate.ms": (tracer.mean_ms("bitgen.generate"), "ms"),
        "bitgen.to_bytes.ms": (tracer.mean_ms("bitgen.to_bytes"), "ms"),
        "bitgen.parse.ms": (tracer.mean_ms("bitgen.parse"), "ms"),
        "relocation.configure.ms": (tracer.mean_ms("relocation.configure"), "ms"),
        "relocation.relocate.ms": (tracer.mean_ms("relocation.relocate"), "ms"),
        "faults.payload_crc.ms": (tracer.mean_ms("faults.payload_crc"), "ms"),
        "bitgen.words_per_op": (words / ops, "words"),
        "bitgen.ns_per_word": (bitgen_s * 1e9 / words if words else 0.0, "ns"),
    }
