#!/usr/bin/env python3
"""End-to-end benchmark of socmix (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a socmix checkout. Builds the `perfbench` driver into
.bench_build/ (the first run configures and compiles), generates the
workload's input graph (once per size), runs the driver on it with --seed,
checks every operation's outputs against the reference kept for the seed,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. `--workload all` runs the three workloads in
turn and prints the two lines for each. Options beyond the four above are
for the benchmark's own tests and for refreshing references:

    --nodes N               stand-in size (default 100000)
    --reference FILE        check against FILE instead of the stored references
    --write-reference FILE  add this run's outputs to FILE as the seed's reference
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DRIVER = os.path.join(CMAKE_DIR, "perfbench")
BUILD_TYPE = "Release"

WORKLOADS = ("measure-lj100k", "sampled-fba100k", "sybil-fba100k")
DEFAULT_NODES = 100000
THREADS = 4

# Output tolerances (README.md, "Correctness"): eigenvalues within the
# Lanczos residual tolerance, TVD within 1e-12, everything else exact.
EIGEN_TOL = 1e-8
TVD_TOL = 1e-12

# Least share of the traced operation the named layers' self times must
# cover; the rest is the benchmark's own glue between the layer calls.
LAYER_COVERAGE = 0.95

DRIVER_TIMEOUT_S = 900


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build --

def build():
    """Configures (once) and builds the driver; exits 2 when either fails."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(default_threads())
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                if cmd[1] == "-S":
                    shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                log("build failed; see " + log_path)
                sys.exit(2)


def default_threads():
    return max(1, min(THREADS, len(os.sched_getaffinity(0))))


def driver(args):
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench %s failed: %s" % (args[0], proc.stderr.strip()))


# ------------------------------------------------------------ references --

def stored_reference_path(workload):
    return os.path.join(HERE, "references", workload + ".json")


def local_reference_path(workload, nodes):
    return os.path.join(BUILD, "references", "%s-n%d.json" % (workload, nodes))


def load_reference_file(path, nodes):
    """The seeds -> outputs map of a reference file, {} if absent or sized
    for another node count."""
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        data = json.load(f)
    return data["seeds"] if data.get("nodes") == nodes else {}


def add_reference(path, nodes, seed, outputs):
    """Records `outputs` as the seed's reference in `path`, one seed a line."""
    seeds = load_reference_file(path, nodes)
    seeds[str(seed)] = reference_of(outputs)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v, separators=(",", ":")))
             for k, v in sorted(seeds.items(), key=lambda kv: int(kv[0]))]
    with open(path, "w") as f:
        f.write('{"nodes": %d, "seeds": {\n%s\n}}\n' % (nodes, ",\n".join(lines)))


def reference_of(outputs):
    """The part of an operation's outputs a reference keeps: iteration
    counts and convergence flags are the solver's business, not results."""
    ref = {}
    if "spectrum" in outputs:
        ref["spectrum"] = {k: outputs["spectrum"][k] for k in ("slem", "lambda2", "lambda_min")}
    for key in ("sampled", "fractions"):
        if key in outputs:
            ref[key] = outputs[key]
    return ref


def output_problems(outputs, ref):
    """Why `outputs` is wrong, as a list of strings (empty when right).
    Checks the invariants every output must meet, then, when a reference is
    given, agreement with it."""
    problems = []
    spectrum = outputs.get("spectrum")
    if spectrum is not None:
        if not spectrum["converged"]:
            problems.append("spectrum unconverged after %d iterations" % spectrum["iterations"])
        if not 0.0 <= spectrum["slem"] <= 1.0:
            problems.append("slem %r outside [0, 1]" % spectrum["slem"])
    sampled = outputs.get("sampled")
    if sampled is not None:
        for t, mid, end in zip(sampled["mixing_times"], sampled["tvd_mid"], sampled["tvd_end"]):
            if not (0.0 <= mid <= 1.0 and 0.0 <= end <= 1.0):
                problems.append("tvd outside [0, 1]")
                break
            if t == -1 and end < 0.1:
                problems.append("source marked unmixed with final tvd %r" % end)
                break
    for f in outputs.get("fractions", []):
        if not 0.0 <= f <= 1.0:
            problems.append("admitted fraction %r outside [0, 1]" % f)
            break
    if ref is None:
        return problems

    if set(ref) != set(reference_of(outputs)):
        return problems + ["outputs %s, reference %s" % (sorted(reference_of(outputs)), sorted(ref))]
    if "spectrum" in ref:
        for key in ("slem", "lambda2", "lambda_min"):
            if abs(spectrum[key] - ref["spectrum"][key]) > EIGEN_TOL:
                problems.append("%s %r, reference %r" % (key, spectrum[key], ref["spectrum"][key]))
    if "sampled" in ref:
        want = ref["sampled"]
        if sampled["mixing_times"] != want["mixing_times"]:
            problems.append("per-source mixing times differ from the reference")
        for key in ("tvd_mid", "tvd_end"):
            if len(sampled[key]) != len(want[key]) or any(
                    abs(a - b) > TVD_TOL for a, b in zip(sampled[key], want[key])):
                problems.append("%s differs from the reference by more than %g" % (key, TVD_TOL))
    if "fractions" in ref and outputs["fractions"] != ref["fractions"]:
        problems.append("admitted fractions %r, reference %r" % (outputs["fractions"], ref["fractions"]))
    return problems


# ------------------------------------------------------------ span maths --

class Spans:
    """The traced run's spans, with self time = duration minus the part of
    the span's interval its children cover."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def duration(span):
        return span["end"] - span["start"]

    def self_time(self, span):
        covered, reach = 0.0, span["start"]
        for c in sorted(self.children.get(span["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration(span) - covered

    def root(self, span):
        return self.by_id[span["operation"]]

    def named(self, name, roots=None):
        """Spans called `name`, optionally only under roots with those names."""
        return [s for s in self.spans if s["name"] == name
                and (roots is None or self.root(s)["name"] in roots)]

    def only(self, name, roots=None):
        found = self.named(name, roots)
        if len(found) != 1:
            raise RuntimeError("expected one %s span under %s, found %d" % (name, roots, len(found)))
        return found[0]

    def within(self, span, name):
        """Descendant spans of `span` called `name`."""
        out, stack = [], list(self.children.get(span["id"], []))
        while stack:
            s = stack.pop()
            if s["name"] == name:
                out.append(s)
            stack.extend(self.children.get(s["id"], []))
        return out

    def layer_self_times(self, root):
        """Self time per layer (the span-name prefix) over root's subtree."""
        totals, stack = {}, [root]
        while stack:
            s = stack.pop()
            layer = s["name"].split(".")[0] if "." in s["name"] else "bench"
            totals[layer] = totals.get(layer, 0.0) + self.self_time(s)
            stack.extend(self.children.get(s["id"], []))
        return totals


def bytes_per_spmv(n, m):
    """Bytes one WalkOperator::apply moves if nothing is cached: the
    prescale streams x, 1/sqrt(d) and the scratch vector (24n); the gather
    reads offsets (8(n+1)), neighbors and the gathered scratch (12 per arc,
    2m arcs), 1/sqrt(d) again and writes y (16n)."""
    return 24 * n + 8 * (n + 1) + 24 * m + 16 * n


def reorth_flops(n, k):
    """Flops of full reorthogonalization over k Lanczos steps: two passes,
    each a dot and an axpy (4n) against the deflation vector and every basis
    vector so far, after the same for the start vector."""
    return 8 * n + sum(8 * n * (i + 1) for i in range(1, k + 1))


def layer_metrics(result, file_bytes):
    """Per-layer metrics, every one derived from the traced run's spans."""
    spans = Spans(result["spans"])
    setup = Spans(result["setup_spans"])
    passes = ("operation", "companion.linalg", "companion.markov", "companion.sybil")
    m = {}

    load = Spans.duration(setup.only("graph.load_edge_list_file"))
    m["graph.load_s"] = (load, "s")
    m["graph.load_mb_per_s"] = (file_bytes / 1e6 / load, "MB/s")
    m["graph.lcc_s"] = (Spans.duration(setup.only("graph.largest_component")), "s")

    lanczos = spans.only("linalg.slem_spectrum", passes)
    spmv = spans.within(lanczos, "linalg.spmv")
    n, edges = lanczos["counts"]["nodes"], lanczos["counts"]["edges"]
    k = lanczos["counts"]["iterations"]
    lanczos_s = Spans.duration(lanczos)
    spmv_s = sum(Spans.duration(s) for s in spmv)
    m["linalg.lanczos_s"] = (lanczos_s, "s")
    m["linalg.spmv_s"] = (spmv_s, "s")
    m["linalg.spmv_calls"] = (len(spmv), "count")
    m["linalg.lanczos_self_s"] = (spans.self_time(lanczos), "s")
    m["linalg.lanczos_iterations"] = (k, "count")
    m["linalg.converged"] = (lanczos["counts"]["converged"], "bool")
    m["linalg.spmv_bytes_computed"] = (len(spmv) * bytes_per_spmv(n, edges), "bytes")
    m["linalg.reorth_flops_computed"] = (reorth_flops(n, k), "flops")
    m["linalg.basis_mb_computed"] = (k * n * 8 / 1e6, "MB")
    solve_1t = spans.only("linalg.slem_spectrum_with_vector", ("probe.linalg_1t",))
    spmv_1t = spans.within(solve_1t, "linalg.spmv")
    m["linalg.spmv_speedup_4t"] = (
        (sum(Spans.duration(s) for s in spmv_1t) / len(spmv_1t)) / (spmv_s / len(spmv)), "x")
    m["linalg.lanczos_speedup_4t"] = (Spans.duration(solve_1t) / lanczos_s, "x")
    m["linalg.ritz_residual"] = (check(result, "ritz_residual")["value"], "norm")
    probe = spans.only("linalg.slem_spectrum", ("probe.convergence",))
    m["linalg.probe_iterations"] = (probe["counts"]["iterations"], "count")
    m["linalg.probe_converged"] = (probe["counts"]["converged"], "bool")

    sampled = spans.only("markov.measure_sampled_mixing", passes)
    sampled_s = Spans.duration(sampled)
    c = sampled["counts"]
    m["markov.sampled_s"] = (sampled_s, "s")
    m["markov.step_s"] = (statistics.median(
        Spans.duration(s) for s in spans.named("markov.step_with_tvd")), "s")
    m["markov.lane_edge_updates_per_s"] = (
        c["sources"] * c["steps"] * 2 * c["edges"] / sampled_s, "1/s")
    sampled_1t = spans.only("markov.measure_sampled_mixing", ("probe.markov_1t",))
    m["markov.sampled_speedup_4t"] = (Spans.duration(sampled_1t) / sampled_s, "x")

    sweep = spans.only("sybil.sweep_fractions", passes)
    c = sweep["counts"]
    sweep_s = Spans.duration(sweep)
    lookups = c["verifier_cache_hits"] + c["verifier_cache_misses"]
    m["sybil.engine_build_s"] = (Spans.duration(spans.only("sybil.engine_build", passes)), "s")
    m["sybil.precompute_s"] = (sum(Spans.duration(s) for s in spans.named("sybil.verifier", passes)), "s")
    m["sybil.suspect_tails_s"] = (Spans.duration(spans.only("sybil.registration_tails_multi")), "s")
    m["sybil.sweep_fractions_s"] = (sweep_s, "s")
    m["sybil.route_hops_walked"] = (c["route_hops_walked"], "count")
    m["sybil.queries_per_s"] = (c["queries"] / sweep_s, "1/s")
    m["sybil.verifier_cache_hit_ratio"] = (c["verifier_cache_hits"] / lookups, "ratio")
    m["sybil.verifier_cache_lookups"] = (lookups, "count")

    operation = spans.only("operation")
    traced_s = Spans.duration(operation)
    recorded = sum(1 for s in spans.spans if s["operation"] == operation["id"])
    m["trace.operation_s"] = (traced_s, "s")
    m["trace_overhead_frac"] = (recorded * result["span_cost_s"] / traced_s, "fraction")
    return m, layer_coverage_check(spans)


def layer_coverage_check(spans):
    """The check that the named layers' self times make up at least
    LAYER_COVERAGE of the traced operation; the rest is the self time of the
    benchmark's own spans ("bench")."""
    operation = spans.only("operation")
    traced_s = Spans.duration(operation)
    self_times = spans.layer_self_times(operation)
    coverage = (traced_s - self_times.get("bench", 0.0)) / traced_s
    log("operation self time by layer: " + ", ".join(
        "%s %.3fs" % kv for kv in sorted(self_times.items())))
    return {"name": "layers_cover_operation", "value": coverage, "ok": coverage >= LAYER_COVERAGE}


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def unstolen_wall(op):
    """An operation's wall time less the per-CPU time the hypervisor stole
    from the machine meanwhile (README.md, "Wall time and steal")."""
    return op["seconds"] - op["steal_seconds"]


def check(result, name):
    return next(c for c in result["checks"] if c["name"] == name)


# ------------------------------------------------------------------ main --

def parse_args(argv):
    p = argparse.ArgumentParser(description="socmix end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    p.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p.add_argument("--reference")
    p.add_argument("--write-reference")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.nodes < 100:
        p.error("--seed >= 0, --seconds >= 1 and --nodes >= 100 required")
    if args.workload == "all" and (args.reference or args.write_reference):
        p.error("--reference and --write-reference name one workload's file")
    return args


def references_for(args):
    """(seed's reference or None, path a missing one is recorded at or None).
    A --reference file without the seed is an error."""
    if args.reference:
        ref = load_reference_file(args.reference, args.nodes).get(str(args.seed))
        if ref is None:
            log("%s has no reference for seed %d at %d nodes"
                % (args.reference, args.seed, args.nodes))
            sys.exit(2)
        return ref, None
    stored = load_reference_file(stored_reference_path(args.workload), args.nodes)
    if str(args.seed) in stored:
        return stored[str(args.seed)], None
    local = local_reference_path(args.workload, args.nodes)
    ref = load_reference_file(local, args.nodes).get(str(args.seed))
    if ref is None:
        log("no reference for seed %d at %d nodes: outputs are checked for invariants "
            "only, and the first correct one is recorded at %s" % (args.seed, args.nodes, local))
    return ref, local


def input_file(which, nodes):
    """The edge list `perfbench gen` makes for a workload (or the probe) at
    `nodes` nodes. Graphs do not depend on the run's seed, so one file per
    size is generated and kept in .bench_build/inputs/."""
    path = os.path.join(BUILD, "inputs", "%s-n%d.txt" % (which, nodes))
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        partial = path + ".partial"
        target = ["--probe"] if which == "probe" else ["--workload", which]
        driver(["gen"] + target + ["--nodes", str(nodes), "--out", partial])
        os.replace(partial, path)
    return path


def run(args, work):
    edges = input_file(args.workload, args.nodes)
    out = os.path.join(work, "result.json")
    cmd = ["run", "--workload", args.workload, "--edges", edges, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(default_threads()), "--out", out]
    if args.trace:
        cmd += ["--probe-edges", input_file("probe", args.nodes)]
    driver(cmd)
    with open(out) as f:
        return json.load(f), os.path.getsize(edges)


def main(argv):
    args = parse_args(argv)
    build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        measure(argparse.Namespace(**{**vars(args), "workload": workload}))
    return 0


def measure(args):
    """Runs one workload and prints its context line and result line."""
    ref, record_at = references_for(args)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(BUILD, "tmp"))
    try:
        result, file_bytes = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for i, op in enumerate(result["ops"]):
        attempted += 1
        problems = [op["error"]] if "error" in op else output_problems(op["outputs"], ref)
        if problems:
            failed += 1
            log("operation %d failed: %s" % (i, "; ".join(problems)))
        elif ref is None and record_at:
            add_reference(record_at, args.nodes, args.seed, op["outputs"])
            log("recorded operation %d's outputs as the reference for seed %d" % (i, args.seed))
            ref = reference_of(op["outputs"])
        if args.write_reference and "outputs" in op and i == 0:
            add_reference(args.write_reference, args.nodes, args.seed, op["outputs"])

    if args.trace:
        metrics, coverage = layer_metrics(result, file_bytes)
        for c in result["checks"] + [coverage]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                log("check %s failed (value %r)" % (c["name"], c["value"]))
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        with open(os.path.join(BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed)), "w") as f:
            json.dump({"setup": result["setup_spans"], "spans": result["spans"]}, f)
    else:
        metrics = {
            # The lower median, so that one operation slowed by a neighbour
            # cannot move a run of two.
            "op_wall_s": (statistics.median_low(unstolen_wall(op) for op in result["ops"]), "s"),
            "op_cpu_s": (statistics.median_low(op["cpu_seconds"] for op in result["ops"]), "s"),
            "setup_s": (median_of(result["setup"], "cpu_seconds"), "s"),
            "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
        }
        log("operation wall / steal / CPU seconds: " + ", ".join(
            "%.3f / %.3f / %.3f" % (op["seconds"], op["steal_seconds"], op["cpu_seconds"])
            for op in result["ops"]))

    context = {k: result[k] for k in ("workload", "seed", "threads", "build_type", "nodes", "edges")}
    context["failed_frac"] = failed / attempted
    if not args.trace:
        context["op_raw_wall_s"] = median_of(result["ops"], "seconds")
        context["op_steal_s"] = median_of(result["ops"], "steal_seconds")
        context["setup_wall_s"] = median_of(result["setup"], "seconds")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
