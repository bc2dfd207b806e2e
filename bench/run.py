"""Size-and-speed benchmark for plancode.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One run is one fresh process.  It generates the workload's inputs from the
seed, times cold set-up (import plus table build into empty cache
directories under ``bench/.work``), then encodes and decodes whole rounds of
the inputs for ``--seconds`` seconds, checking every output.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.

Times are measured against a fixed pure-Python reference loop that runs
between operations: an operation's time is scaled by ``REF_NOMINAL_S`` over
the loop's duration around it, which takes out the speed drift of a shared
machine.  The raw figures and the loop's own speed are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import workloads  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_roundtrip,
    check_stats,
    component_count,
    face_lengths,
)
from setup_probe import cold_setup, require_source  # noqa: E402

SETUP_SAMPLES = 3
# Seconds of work between two reference samples; a sample is the median of
# REF_REPEAT runs of the reference loop.
REF_EVERY_S = 0.25
REF_REPEAT = 3
# The reference loop traces the faces of this fixed triangulation and runs
# breadth-first searches over it.  Of the loops tried (integer arithmetic,
# list and dict updates, searches, face tracing, mixtures), this mixture
# followed the codec's slow-downs on a shared machine most closely.
REF_ROWS = gen.stacked_triangulation(1500, random.Random(0))
# Duration of the reference loop that defines one reference second.
REF_NOMINAL_S = 0.010

END_TO_END = ("setup_s", "bits_per_node", "encode_nodes_per_s", "decode_nodes_per_s", "peak_rss_mib")
UNITS = {
    "setup_s": "s",
    "bits_per_node": "bit/node",
    "encode_nodes_per_s": "node/s",
    "decode_nodes_per_s": "node/s",
    "peak_rss_mib": "MiB",
}
# Per-layer span times: metric -> (span name, "total" or "self").
SPAN_METRICS = {
    "codec.encode_self_s": ("codec.encode", "self"),
    "codec.self_parse_s": ("codec.stats", "total"),
    "codec.decode_self_s": ("codec.decode", "self"),
    "embgraph.triangulate_s": ("embgraph.triangulate", "total"),
    "embgraph.canonical_labeling_s": ("embgraph.canonical_labeling", "total"),
    "planar_sep.decompose_cut_s": ("planar_sep.decompose_cut", "total"),
    "planar_sep.planarize_s": ("planar_sep.planarize", "total"),
    "separation.build_separations_self_s": ("separation.build_separations", "self"),
    "patcher.complete_s": ("patcher.complete", "total"),
    "table.index_of_s": ("table.index_of", "total"),
    "table.member_graph_s": ("table.member_graph", "total"),
    "recovery.encode_level_s": ("recovery.encode_level", "total"),
    "recovery.decode_level_s": ("recovery.decode_level_from", "total"),
}
BIT_METRICS = {
    "codec.frame_bits_per_node": ("header_bits", "prefix_bits", "padding_bits"),
    "patcher.fix_bits_per_node": ("fix_bits",),
    "table.table_bits_per_node": ("table_bits",),
    "table.part_code_bits_per_node": ("part_code_bits",),
    "recovery.bits_per_node": ("recovery_bits",),
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "bit/node" for name in BIT_METRICS},
    "patcher.total_s": "s",
    "table.deserialize_s": "s",
    "table.build_s": "s",
    "table.members": "count",
    "separation.center_fraction": "ratio",
    "separation.parts": "count",
    "trace.encode_overhead_pct": "%",
    "trace.decode_overhead_pct": "%",
}


def ref_loop() -> int:
    """Fixed pure-Python work: tuple sets, dict and list lookups."""
    n = len(REF_ROWS)
    reached = 0
    for s in range(0, n, 100):
        seen = [False] * n
        seen[s] = True
        queue = [s]
        for u in queue:
            for w in REF_ROWS[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        reached += len(queue)
    return reached + len(face_lengths(REF_ROWS))


class Clock:
    """Reference-loop samples taken between operations, in run order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -1.0

    def sample(self) -> int:
        runs = []
        for _ in range(REF_REPEAT):
            t0 = time.perf_counter()
            ref_loop()
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs))
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Index of the latest sample, taking a new one if it is stale."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Reference seconds per wall second between sample ``before`` and
        the one after it."""
        ref = (self.samples[before] + self.samples[before + 1]) / 2
        return REF_NOMINAL_S / ref

    def scale_since(self, first: int) -> float:
        """Reference seconds per wall second over samples ``first`` on."""
        return REF_NOMINAL_S / statistics.median(self.samples[first:])


class Op:
    """Outcome of one encode+decode of one input in one round."""

    __slots__ = ("nodes", "ref", "dec_ref", "enc_s", "dec_s", "data", "stats", "failed", "traced")

    def __init__(self, nodes: int, ref: int, traced: bool) -> None:
        self.nodes = nodes
        # Reference samples taken just before encode and just before decode.
        self.ref = self.dec_ref = ref
        self.traced = traced
        self.enc_s = self.dec_s = 0.0
        self.data = b""
        self.stats = None
        self.failed = False


def run_op(api, wl, inp, ncomp: int, cache_dir: str, clock: Clock, tracer) -> Op:
    g = api.EmbeddedGraph.from_rotations(inp.rows)
    op = Op(len(inp.rows), clock.due(), tracer is not None)

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.span(name, fn, *args, **kwargs)

    t0 = time.perf_counter()
    try:
        res = call(
            "codec.encode", api.encode, g, wl.class_name,
            inline_table=wl.inline_table, cache_dir=cache_dir,
        )
    except api.CodecError as exc:
        if inp.zero_parts and "part count out of range" in str(exc):
            op.failed = True
            return op
        raise CheckFailed(f"{inp.name}: encode failed: {exc}") from exc
    op.enc_s = time.perf_counter() - t0
    op.dec_ref = clock.due()
    t1 = time.perf_counter()
    decoded = call("codec.decode", api.decode, res.data, cache_dir=cache_dir)
    op.dec_s = time.perf_counter() - t1
    op.data, op.stats = res.data, res.stats
    try:
        check_roundtrip(decoded.to_rotations(), inp.rows, res.labeling)
        check_stats(res.data, res.stats, len(inp.rows), ncomp)
    except CheckFailed as exc:
        raise CheckFailed(f"{inp.name}: {exc}") from exc
    return op


def run_round(api, wl, ncomps, cache_dir, clock, tracer=None) -> list[Op]:
    gc.collect()
    return [
        run_op(api, wl, inp, ncomp, cache_dir, clock, tracer)
        for inp, ncomp in zip(wl.inputs, ncomps)
    ]


def timed_setup(class_name: str, work: str, clock: Clock) -> tuple[list[float], list[float]]:
    """Cold set-up samples in reference seconds, and raw: this process
    first, then fresh processes running ``setup_probe.py``."""
    env = {k: v for k, v in os.environ.items() if k != "PLANCODE_CACHE_DIR"}
    out, raw = [], []
    for i in range(SETUP_SAMPLES):
        cache_dir = os.path.join(work, f"setup-{i}")
        os.makedirs(cache_dir)
        before = clock.sample()
        if i == 0:
            secs = cold_setup(class_name, cache_dir)
        else:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), class_name, cache_dir],
                env=env, capture_output=True, text=True, timeout=150, check=True,
            )
            secs = float(proc.stdout.split()[-1])
        clock.sample()
        out.append(secs * clock.scale(before))
        raw.append(secs)
    return out, raw


def check_repeat(first: list[Op], again: list[Op], wl) -> None:
    """Every round must produce the same containers and the same failures."""
    for inp, a, b in zip(wl.inputs, first, again):
        if a.failed != b.failed or a.data != b.data:
            raise CheckFailed(f"{inp.name}: output differs between rounds")


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.5g}"
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return f"median {med:.5g} (q1 {q1:.5g}, q3 {q3:.5g}, {len(xs)} samples)"


def bits_metrics(ops: list[Op]) -> dict[str, float]:
    good = [op for op in ops if not op.failed]
    nodes = sum(op.nodes for op in good)
    out = {"bits_per_node": sum(8 * len(op.data) for op in good) / nodes}
    for name, fields in BIT_METRICS.items():
        out[name] = sum(getattr(op.stats, f) for op in good for f in fields) / nodes
    return out


def rates(rounds: list[list[Op]], clock: Clock) -> tuple[float, float, float, float]:
    """(encode, decode) node/s: the median over rounds of each round's rate
    in reference seconds, then the raw rates over all rounds."""
    enc, dec = [], []
    nodes = raw_enc = raw_dec = 0.0
    for ops in rounds:
        good = [op for op in ops if not op.failed]
        n = sum(op.nodes for op in good)
        enc.append(n / sum(op.enc_s * clock.scale(op.ref) for op in good))
        dec.append(n / sum(op.dec_s * clock.scale(op.dec_ref) for op in good))
        nodes += n
        raw_enc += sum(op.enc_s for op in good)
        raw_dec += sum(op.dec_s for op in good)
    return statistics.median(enc), statistics.median(dec), nodes / raw_enc, nodes / raw_dec


def measure(args, wl, work: str) -> tuple[dict, int, int, list[str]]:
    """Run the workload; return (metrics, attempted, failed, report lines)."""
    clock = Clock()
    lines = []
    if args.trace:
        import spans

        clock.sample()
        t0 = time.perf_counter()
        import plancode  # noqa: F401
        from plancode.table import build_table

        cache_dir = os.path.join(work, "setup-0")
        os.makedirs(cache_dir)
        t1 = time.perf_counter()
        table = build_table(wl.class_name, cache_dir=cache_dir)
        t2 = time.perf_counter()
        clock.sample()
        build_s = (t2 - t1) * clock.scale(0)
        lines.append(f"import {t1 - t0:.4f} s, cold table build {t2 - t1:.4f} s (raw)")
    else:
        setup, raw_setup = timed_setup(wl.class_name, work, clock)
        lines.append(
            "setup samples: "
            + ", ".join(f"{s:.4f}" for s in setup)
            + " reference s; raw "
            + ", ".join(f"{s:.4f}" for s in raw_setup)
            + " s"
        )
    import plancode as api
    from plancode.embgraph import write_graph

    cache_dir = os.path.join(work, "setup-0")
    ncomps = [component_count(inp.rows) for inp in wl.inputs]

    clock.sample()
    rounds: list[list[Op]] = []
    tracer = spans.Tracer() if args.trace else None
    layer_sums: dict[str, float] = {}
    shapes: list[tuple[int, int, int]] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = args.trace and len(rounds) % 2 == 1
        first = len(clock.samples) - 1
        if traced:
            tracer.install()
        try:
            ops = run_round(api, wl, ncomps, cache_dir, clock, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        clock.sample()
        if rounds:
            check_repeat(rounds[0], ops, wl)
        rounds.append(ops)
        if traced:
            scale = clock.scale_since(first)
            for name, value in layer_values(tracer).items():
                layer_sums[name] = layer_sums.get(name, 0.0) + value * scale
            shapes.extend(tracer.separations)
            tracer.reset()
        if time.perf_counter() >= deadline and (not args.trace or len(rounds) >= 2):
            break

    all_ops = [op for ops in rounds for op in ops]
    attempted = len(all_ops)
    failed = sum(op.failed for op in all_ops)
    plain = [ops for ops in rounds if not ops[0].traced]
    enc, dec, raw_enc, raw_dec = rates(plain, clock)
    lines.append(
        f"{len(wl.inputs)} inputs per round, {sum(len(i.rows) for i in wl.inputs)} nodes, "
        f"{len(rounds)} timed rounds"
    )
    lines.append(f"reference loop (s): {quartiles(clock.samples)}; nominal {REF_NOMINAL_S}")
    lines.append(f"raw rates: encode {raw_enc:.1f} node/s, decode {raw_dec:.1f} node/s")
    bits = bits_metrics(rounds[0])
    good = [inp for inp, op in zip(wl.inputs, rounds[0]) if not op.failed]
    naive = sum(len(write_graph(api.EmbeddedGraph.from_rotations(i.rows))) for i in good)
    lines.append(
        f"naive write_graph: {naive / sum(len(i.rows) for i in good):.4f} bit/node "
        f"(codec: {bits['bits_per_node']:.4f})"
    )

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "bits_per_node": bits["bits_per_node"],
            "encode_nodes_per_s": enc,
            "decode_nodes_per_s": dec,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {k: (metrics[k], UNITS[k]) for k in END_TO_END}, attempted, failed, lines

    t_enc, t_dec, _, _ = rates([ops for ops in rounds if ops[0].traced], clock)
    ntraced = len(rounds) // 2
    metrics = {name: layer_sums[name] / ntraced for name in layer_sums}
    metrics.update({name: bits[name] for name in BIT_METRICS})
    metrics["table.build_s"] = build_s
    metrics["table.members"] = sum(table.counts())
    metrics["separation.center_fraction"] = sum(s[0] for s in shapes) / sum(s[1] for s in shapes)
    metrics["separation.parts"] = sum(s[2] for s in shapes) / ntraced
    metrics["trace.encode_overhead_pct"] = 100 * (enc / t_enc - 1)
    metrics["trace.decode_overhead_pct"] = 100 * (dec / t_dec - 1)
    lines.append(
        f"traced per round: encode {metrics['encode']:.6g} s, decode {metrics['decode']:.6g} s, "
        f"of which self-parse {metrics['codec.self_parse_s'] / metrics['encode']:.1%} of encode, "
        f"apply_fix alone {metrics['patcher.total_s'] - metrics['patcher.complete_s']:.6g} s"
    )
    return {k: (metrics[k], PER_LAYER_UNITS[k]) for k in sorted(PER_LAYER_UNITS)}, attempted, failed, lines


def layer_values(tracer) -> dict[str, float]:
    """Raw per-layer seconds of one traced round."""
    totals = tracer.totals()

    def get(name: str, kind: str) -> float:
        total, self_s, _calls = totals.get(name, (0.0, 0.0, 0))
        return self_s if kind == "self" else total

    out = {metric: get(*spec) for metric, spec in SPAN_METRICS.items()}
    out["encode"] = get("codec.encode", "total")
    out["decode"] = get("codec.decode", "total")
    out["patcher.total_s"] = get("patcher.complete", "total") + get("patcher.apply_fix", "total")
    # Decode-side table acquisition: parsing an inline table, or looking a
    # by-reference table up.
    out["table.deserialize_s"] = get("table.deserialize_from", "total") + tracer.root_total(
        "codec.decode", "table.build_table"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    wl = workloads.make(args.workload, args.seed)
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        metrics, attempted, failed, lines = measure(args, wl, work)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there
    print(f"workload {wl.name} ({wl.class_name}), seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"operations: {attempted} attempted, {failed} failed (zero-parts inputs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
