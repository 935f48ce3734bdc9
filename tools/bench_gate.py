#!/usr/bin/env python3
"""Merges the bench JSON records and gates the wins they must show.

    python3 tools/bench_gate.py [--out BENCH.json] fig7.json fig7_stream.json \
        plan_reuse.json masked_triangle.json executor_serve.json \
        table7_numa.json table5_stream.json robustness_overhead.json \
        serve_throughput.json fused_epilogue.json

Each input is a JSON list of records as the benches write them with
--json (the bench-json CI job's run step shows the commands).  The
records are concatenated, written to --out if given, and checked: the
compressed tuple streams, the fused mask, the executor's plan cache and
concurrency, NUMA placement, the robustness-hook overhead, the serving
daemon's wire overhead and the fused epilogues.  Core-aware floors use the
CPUs this process may run on.  Exits non-zero on the first failed check.
"""
import argparse
import json
import os


def gate(records, cores):
    # Compressed tuple streams: on the boolean ER sweep the 8 B
    # key-only stream must beat the 12 B narrow stream on the
    # sort+compress phases it shrinks — every point above parity and
    # the sweep geomean at or above the 1.15x floor (local margins
    # run 1.3-1.4x; the floor absorbs shared-runner noise).
    stream = [r for r in records
              if r.get("bench") == "random_sweep"
              and "pb_bool_keyonly" in r and r["ef"] >= 16]
    assert stream, "boolean ER sweep records missing"
    ratios = []
    for r in stream:
        ko, nar = r["pb_bool_keyonly"], r["pb_bool_narrow"]
        assert ko["format"] == "keyonly", f"key-only never engaged: {r}"
        assert nar["format"] == "narrow", f"narrow baseline missing: {r}"
        sc_ko = ko["sort_s"] + ko["compress_s"]
        sc_nar = nar["sort_s"] + nar["compress_s"]
        ratio = sc_nar / sc_ko
        ratios.append(ratio)
        print(f"scale {r['scale']} ef {r['ef']}: keyonly sort+compress "
              f"{ratio:.2f}x narrow (f32 {r['pb_f32']['format']})")
        assert ratio > 1.0, f"keyonly lost to narrow: {r}"
    geomean = 1.0
    for x in ratios:
        geomean *= x
    geomean **= 1.0 / len(ratios)
    print(f"keyonly vs narrow sort+compress geomean: {geomean:.3f}x")
    assert geomean >= 1.15, f"compressed-stream floor missed: {geomean}"
    # Tuple-stream copy: at equal bandwidth the 8 B formats must move
    # more tuples per second than the 16 B wide stream.
    tstream = {r["format"]: r for r in records
               if r.get("bench") == "tuple_stream"}
    assert {"wide", "narrow", "keyonly", "f32"} <= tstream.keys(), \
        f"tuple_stream records missing: {sorted(tstream)}"
    for fmt in ("keyonly", "f32"):
        print(f"{fmt}: {tstream[fmt]['mtuples_s']:.0f} Mtuples/s vs "
              f"wide {tstream['wide']['mtuples_s']:.0f}")
        assert tstream[fmt]["mtuples_s"] > tstream["wide"]["mtuples_s"], \
            f"8 B stream moved fewer tuples than wide: {tstream[fmt]}"
    # The fused masked descriptor must beat multiply-then-Hadamard on
    # the path the descriptor architecture owns: mask-aware "auto"
    # selection (a 2-3x margin, robust to shared-runner noise).  The
    # pb fused-compress win (~1.1x) is tracked, not gated — it sits
    # inside CI noise.
    masked = [r for r in records if r.get("bench") == "masked_triangle"]
    assert masked, "masked_triangle records missing"
    for r in masked:
        print(f"scale {r['scale']} {r['algo']} -> {r['resolved']}: "
              f"fused vs unfused {r['speedup']:.2f}x "
              f"(pb dropped {r['mask_dropped']} tuples at compress)")
        if r["algo"] == "auto":
            assert r["speedup"] > 1.0, f"fused mask lost: {r}"
    # Executor serving: cached plans must beat replan-per-flip on
    # every alternating workload (> 1.0 per record), with the
    # headline margin (>= 1.2x on quiet hardware, asserted at > 1.1
    # for shared-runner noise) required only of the best —
    # smallest, most serving-like — scale; concurrent execute
    # through one cached plan must scale above single-thread when
    # the runner has physical parallelism to offer.
    serve = [r for r in records if r.get("bench") == "executor_serve"]
    assert serve, "executor_serve records missing"
    alternate = [r for r in serve if r["kind"] == "alternate"]
    for r in alternate:
        print(f"{r['input']}: cached vs replan {r['speedup']:.2f}x "
              f"(hit ratio {r['hit_ratio']:.2f})")
        assert r["speedup"] > 1.0, f"plan cache lost: {r}"
        assert r["hit_ratio"] > 0.9, f"cache missed its workload: {r}"
    assert max(r["speedup"] for r in alternate) > 1.1, \
        f"plan cache margin collapsed: {alternate}"
    for r in (r for r in serve if r["kind"] == "concurrent"):
        print(f"{r['input']}: {r['threads']}-thread aggregate "
              f"{r['scaling']:.2f}x single-thread ({cores} cores)")
        if cores >= 2:
            assert r["scaling"] > 1.0, f"concurrent serving lost: {r}"
    # NUMA placement: topology detected, bin->home partition built,
    # and the multiply through place_bins executed.
    numa = [r for r in records if r.get("bench") == "table7_numa"]
    assert numa, "table7_numa records missing"
    for r in (r for r in numa if r["kind"] == "placement"):
        print(f"{r['input']}: {r['nbins']} bins over "
              f"{r['bin_home_nodes']} node(s), placed "
              f"{r['placed_mflops']:.1f} MFLOPS")
        assert r["bin_home_nodes"] >= 1 and r["nbins"] >= 1, r
        assert r["placed_mflops"] > 0, f"placement run failed: {r}"
    # Robustness overhead: the fault hooks, budget accounting and
    # cancellation polling are compiled into every build, so the
    # armed-but-never-firing configuration must stay within ~3% of
    # the idle one (geomean over the sweep >= 0.97; measurements
    # are best-of-N and interleaved, so residual drift is real
    # overhead, not runner noise).
    rob = [r for r in records
           if r.get("bench") == "robustness_overhead_summary"]
    assert rob, "robustness_overhead summary missing"
    g = rob[0]["geomean_ratio"]
    print(f"robustness armed/idle geomean over {rob[0]['points']} "
          f"points: {g:.3f}x")
    assert g >= 0.97, f"robustness overhead gate missed: {g}"
    # Serving daemon: upload-once / square-by-handle over the Unix
    # socket must stay within 25% of the in-process executor on the
    # fig7 ER family (local margins run 1.11-1.25x; the wire cost
    # is ~4 memcpys of nnz(C), which single-lane compute dominates).
    wire = [r for r in records if r.get("bench") == "serve_throughput"]
    assert wire, "serve_throughput records missing"
    for r in wire:
        print(f"{r['input']}: daemon {r['daemon_ms']:.2f} ms vs "
              f"inproc {r['inproc_ms']:.2f} ms -> "
              f"{r['overhead_ratio']:.3f}x ({r['result_mb']:.1f} MB result, "
              f"2x2 shards {r['overhead_ratio_2x2']:.2f}x)")
        assert r["overhead_ratio"] <= 1.25, \
            f"daemon round-trip overhead above 25%: {r}"
    # Fused epilogues.  Expand masking is a structural flop win —
    # the scatter loop may generate at most the nnz(mask)-bounded
    # tuple count (min(nnz(A row), nnz(B col)) summed over the
    # mask), core-count independent, and must beat compress-stage
    # filtering outright (local margins run 3-10x).  Fused
    # accumulate deletes the product materialization AND
    # parallelizes the union merge the post-pass runs serially, so
    # its floor is core-aware: >= 1.10x
    # geomean with real cores, an overhead bound (>= 0.95) at 1
    # core where both merges are serial and the fusion only saves
    # the intermediate CSR.
    fe = [r for r in records if r.get("bench") == "fused_epilogue"]
    assert fe, "fused_epilogue records missing"
    for r in (r for r in fe if r["mode"] == "expand_mask"):
        print(f"{r['input']}: generated {r['generated_tuples']:.0f} "
              f"tuples vs mask bound {r['mask_bounded_tuples']:.0f} "
              f"({r['tuple_ratio']:.3f}), masked vs filtered "
              f"{r['speedup']:.2f}x")
        assert r["tuple_ratio"] <= 1.05, f"expand mask overgenerated: {r}"
        assert r["speedup"] > 1.0, \
            f"expand masking lost to compress filtering: {r}"
    acc = [r for r in fe if r["mode"] == "accumulate"]
    assert acc, "fused accumulate records missing"
    geo = 1.0
    for r in acc:
        print(f"{r['input']} {r['semiring']}: fused accumulate "
              f"{r['speedup']:.2f}x post-pass")
        assert r["speedup"] >= 0.85, f"fused accumulate overhead: {r}"
        geo *= r["speedup"]
    geo **= 1.0 / len(acc)
    acc_floor = 1.10 if cores >= 2 else 0.95
    print(f"fused accumulate geomean: {geo:.3f}x "
          f"(floor {acc_floor}, {cores} cores)")
    assert geo >= acc_floor, f"fused accumulate floor missed: {geo}"
    for r in (r for r in fe if r["mode"] == "post_op"):
        print(f"{r['input']}: fused post-op {r['speedup']:.2f}x "
              f"separate pass")
        assert r["speedup"] >= 0.90, f"fused post-op overhead: {r}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the merged records here")
    ap.add_argument("inputs", nargs="+", help="bench --json output files")
    args = ap.parse_args()
    records = []
    for path in args.inputs:
        with open(path) as f:
            records.extend(json.load(f))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(records, f, indent=1)
    print(f"merged {len(records)} records")
    gate(records, len(os.sched_getaffinity(0)))


if __name__ == "__main__":
    main()
