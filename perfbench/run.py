#!/usr/bin/env python3
"""End-to-end benchmark of the RnR simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload replay-lineup --seed 3 \
        --seconds 10 --trace 0

Builds perfbench/ (the simulator library plus the perfbench binary) into
.bench_build, brings a private store directory to the workload's start
state, times a fresh perfbench process per cell, checks
every cell's counters, and prints one JSON object as the last line of
stdout.  A human summary goes to stderr.  Exits 1 when a cell failed or
its counters are wrong, 2 on a usage or build error.

--trace 0 prints the end-to-end metrics; --trace 1 runs the cells once
untraced and once through the traced pipeline and prints the per-layer
metrics.  --workload all runs the three workloads in turn and prints one
result line each.  --update-reference rewrites the workload's entries of
reference.json from an untraced pass; nothing else writes that file.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
MIB = 1024.0 * 1024.0
PASS_TIMEOUT_S = 170
ROTATE_S = 0.025
CPUS = sorted(os.sched_getaffinity(0))

# Besides these, a cell's counters hold every RNR_ITER_STAT_FIELDS field
# as a per-iteration list, under the field's name.
TABLE_FIELDS = ["seq_table_bytes", "div_table_bytes"]

# Table III: every app/input pair of the paper's evaluation.
TABLE3 = [(app, graph) for graph in ("urand", "amazon", "com-orkut", "roadUSA")
          for app in ("pagerank", "hyperanf")]
TABLE3 += [("spcg", m) for m in ("atmosmodj", "bbmat", "nlpkkt80", "pdb1HYS")]
# Seeds graph_gen.cc gives the Table III graphs; a held-out seed s
# regenerates a graph of the same shape with seed 1000 * s + this.
GRAPH_SEEDS = {"urand": 11, "amazon": 12, "com-orkut": 13}
LINEUP = ["none", "nextline", "bingo", "stems", "misb", "droplet", "rnr",
          "rnr-combined"]
CONTROLS = ["none", "window", "window+pace"]


class Cell:
    """One benchmark cell: its perfbench spelling and reference name."""

    def __init__(self, app, inp, pf, control="window+pace", ideal=False,
                 seed=0):
        self.app, self.inp = app, inp
        self.held_out = seed != 0 and inp in GRAPH_SEEDS
        tail = ":".join([pf, control, "1" if ideal else "0"])
        if self.held_out:
            self.name = "%s:%s@seed%d:%s" % (app, inp, seed, tail)
            self.spec = "tracefile:%s:%s" % (self.prefix(), tail)
        else:
            self.name = "%s:%s:%s" % (app, inp, tail)
            self.spec = self.name
        self.pf = pf
        self.group = self.name.split(":")[1]

    def prefix(self):
        return "held-out/%s-%s" % (self.app, self.inp)

    def warm_spec(self):
        return "%s:%s:none:window+pace:0" % (self.app, self.inp)


def workload_cells(workload, seed):
    if workload == "capture-cold":
        return [Cell(a, i, "none") for a, i in TABLE3]
    if workload == "replay-lineup":
        cells = []
        for app, inp in (("pagerank", "amazon"), ("spcg", "atmosmodj")):
            for pf in LINEUP:
                if pf == "droplet" and app == "spcg":
                    continue  # DROPLET is graph-only, as in Fig 6
                cells.append(Cell(app, inp, pf, seed=seed))
            cells.append(Cell(app, inp, "none", ideal=True, seed=seed))
        return cells
    if workload == "rnr-control":
        return [Cell(app, inp, "rnr", control=c, seed=seed)
                for app, inp in (("pagerank", "urand"),
                                 ("hyperanf", "com-orkut"))
                for c in CONTROLS]
    raise ValueError(workload)


WORKLOADS = ["capture-cold", "replay-lineup", "rnr-control"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources next to perfbench/")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


# ---- hermetic runs ---------------------------------------------------

class RunDir:
    """A private directory for the stores, and the environment that points
    the simulator at it.  Every RNR_* variable the runs depend on is set;
    every other one is cleared."""

    def __init__(self, binary, cache_on):
        base = os.path.join(ROOT, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=base)
        self.binary = binary
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("RNR_")}
        self.env.update({
            "RNR_JOBS": "1",
            "RNR_PROGRESS": "0",
            "RNR_LOG_LEVEL": "warn",
            "RNR_CACHE": "1" if cache_on else "0",
            "RNR_CACHE_FILE": os.path.join(self.dir, "results.cache"),
            "RNR_TRACE_STORE": "1",
            "RNR_TRACE_DIR": os.path.join(self.dir, "traces"),
            "RNR_TRACE_CAP_MB": "0",
            "RNR_CKPT": "1",
            "RNR_CKPT_DIR": os.path.join(self.dir, "ckpt"),
        })

    def wipe(self):
        for name in os.listdir(self.dir):
            path = os.path.join(self.dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
        for sub in ("traces", "ckpt", "held-out"):
            os.makedirs(os.path.join(self.dir, sub))

    def perfbench(self, args):
        """Runs the perfbench binary to completion; returns its JSON lines.

        The cores of a shared machine run at different speeds under
        other tenants' load, and a process tends to stay on one core.
        Moving the process to the next core every ROTATE_S makes each cell
        see all of them, which halves the spread of one cell's time."""
        proc = subprocess.Popen([self.binary] + args, cwd=self.dir,
                                env=self.env, stdout=subprocess.PIPE,
                                text=True)
        deadline = time.monotonic() + PASS_TIMEOUT_S
        try:
            for turn in itertools.count():
                if len(CPUS) > 1:
                    try:
                        os.sched_setaffinity(proc.pid,
                                             {CPUS[turn % len(CPUS)]})
                    except OSError:
                        pass  # it has just exited
                try:
                    out, _ = proc.communicate(timeout=ROTATE_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        if proc.returncode not in (0, 1) or (proc.returncode and not lines):
            raise RuntimeError("perfbench %s exited %d"
                               % (args[0], proc.returncode))
        return lines

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def set_up(box, workload, cells, seed):
    """Brings the stores to the workload's start state; returns seconds.

    capture-cold starts from an empty trace store and result cache; its
    set-up publishes the Table III input snapshots, one process per cell as
    a sweep's worker processes would.  The replay workloads also capture
    their traces (or regenerate held-out inputs)."""
    t0 = time.perf_counter()
    box.wipe()
    if workload == "capture-cold":
        for c in cells:
            box.perfbench(["inputs", c.spec])
        return time.perf_counter() - t0
    warm, gen = [], {}
    for c in cells:
        if c.held_out:
            gen[c.prefix()] = (c.app, c.inp)
        elif c.warm_spec() not in warm:
            warm.append(c.warm_spec())
    for prefix, (app, inp) in sorted(gen.items()):
        box.perfbench(["gen", app, inp,
                       str(1000 * seed + GRAPH_SEEDS[inp]), prefix])
    if warm:
        box.perfbench(["warm"] + warm)
    return time.perf_counter() - t0


def timed_pass(box, cells):
    """Runs every cell in a fresh perfbench process, one after another.

    A process per cell keeps the cells' host times independent of each
    other, which makes their sum steadier than one long process on a
    machine whose cores change speed under other tenants' load."""
    t0 = time.perf_counter()
    results, rss = [], 0.0
    for c in cells:
        lines = box.perfbench(["run", c.spec])
        got = [l for l in lines if "cell" in l]
        results.append(got[0] if got else {"error": "no output"})
        rss = max([rss] + [l["peak_rss_mib"] for l in lines
                           if "peak_rss_mib" in l])
    return time.perf_counter() - t0, results, rss


def traced_pass(box, cells, spans_path):
    """Runs every cell through the traced pipeline in one process."""
    lines = box.perfbench(["traced", "--spans", spans_path] +
                          [c.spec for c in cells])
    by_spec = {l["cell"]: l for l in lines if "cell" in l}
    layers = [l for l in lines if "layers" in l]
    if not layers:
        raise RuntimeError("the traced pipeline printed no layer totals")
    return [by_spec.get(c.spec, {"error": "no output"}) for c in cells], \
        layers[-1]


# ---- correctness -----------------------------------------------------

def load_reference():
    """The committed counters: "cells" holds every field of the cells on
    fixed inputs, "digests" a digest of each held-out-seed cell."""
    if not os.path.isfile(REFERENCE):
        return {"cells": {}, "digests": {}}
    with open(REFERENCE) as f:
        return json.load(f)


def digest(stats):
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def diff_counters(want, got):
    """Field-level differences between two counter objects; a field only
    one of them has is a difference too."""
    out = []
    for f in list(want) + [f for f in got if f not in want]:
        if want.get(f) != got.get(f):
            out.append("%s: reference %s, got %s"
                       % (f, want.get(f), got.get(f)))
    return out


def reference_diff(reference, name, stats):
    """Mismatches of one cell against the reference; None when the
    reference does not know the cell."""
    if name in reference["cells"]:
        return diff_counters(reference["cells"][name], stats)
    if name in reference["digests"]:
        if reference["digests"][name] == digest(stats):
            return []
        return ["counters differ from the reference digest (run the "
                "workload with --seed 0 for a field-level diff)"]
    return None


def invariant_errors(cells, results):
    """Checks that hold for any input, for cells with no reference."""
    errs = {}
    instr = {}
    for c, r in zip(cells, results):
        s = r.get("stats")
        if s is None:
            continue
        e = []
        for i, total in enumerate(s["dram_bytes_total"]):
            parts = sum(s[f][i] for f in ("dram_bytes_demand",
                                          "dram_bytes_prefetch",
                                          "dram_bytes_metadata",
                                          "dram_bytes_writeback"))
            if parts != total:
                e.append("iteration %d: DRAM bytes by origin sum to %d, "
                         "total is %d" % (i, parts, total))
            if s["pf_useful"][i] > s["pf_issued"][i]:
                e.append("iteration %d: more useful than issued" % i)
            if s["l2_demand_misses"][i] > s["l2_accesses"][i]:
                e.append("iteration %d: more misses than accesses" % i)
            if s["cycles"][i] <= 0 or s["instructions"][i] <= 0:
                e.append("iteration %d: no cycles or instructions" % i)
        if c.pf == "none" and any(sum(s[f]) for f in ("pf_issued",
                                                      "dram_bytes_prefetch")):
            e.append("the no-prefetcher cell issued prefetches")
        if not c.pf.startswith("rnr") and (
                any(sum(v) for f, v in s.items() if f.startswith("rnr_")) or
                any(s[f] for f in TABLE_FIELDS)):
            e.append("a non-RnR cell has RnR counters")
        if c.pf.startswith("rnr") and not s["rnr_recorded"][0]:
            e.append("RnR recorded nothing in iteration 0")
        # One trace, one instruction count, whatever the prefetcher.
        first = instr.setdefault(c.group, (c.name, s["instructions"]))
        if first[1] != s["instructions"]:
            e.append("instructions %s differ from %s's %s"
                     % (s["instructions"], first[0], first[1]))
        if e:
            errs[c.name] = e
    return errs


def check(cells, results, reference):
    """Returns the indices of the results that failed; prints the
    field-level diff of each to stderr."""
    failed = {}
    inv = invariant_errors(cells, results)
    for i, (c, r) in enumerate(zip(cells, results)):
        if "stats" not in r:
            failed[i] = ["failed: %s" % r.get("error", "no result")]
            continue
        d = reference_diff(reference, c.name, r["stats"])
        if d is None:
            d = inv.get(c.name, [])
        if d:
            failed[i] = d
    for i, lines in sorted(failed.items()):
        log("MISMATCH %s" % cells[i].name)
        for line in lines:
            log("    " + line)
    return set(failed)


def checker_detects_perturbation(cells, results, reference):
    """The comparison must notice counters that are off by one."""
    for c, r in zip(cells, results):
        if "stats" in r and reference_diff(reference, c.name,
                                           r["stats"]) == []:
            bad = json.loads(json.dumps(r["stats"]))
            bad["l2_demand_misses"][-1] += 1
            return bool(reference_diff(reference, c.name, bad))
    return True  # nothing matched the reference to perturb


def update_reference(cells, results):
    ref = load_reference()
    for c, r in zip(cells, results):
        if "stats" not in r:
            raise RuntimeError("%s failed: %s" % (c.name, r.get("error")))
        if c.held_out:
            ref["digests"][c.name] = digest(r["stats"])
        else:
            ref["cells"][c.name] = r["stats"]

    def block(entries):
        return ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(
            v, separators=(",", ":"))) for k, v in sorted(entries.items()))

    with open(REFERENCE, "w") as f:
        f.write('{"schema": "perfbench-reference-v1",\n'
                ' "cells": {\n%s\n },\n "digests": {\n%s\n }}\n'
                % (block(ref["cells"]), block(ref["digests"])))
    log("reference.json: wrote %d cells" % len(cells))


# ---- metrics ---------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def hd_median(values):
    """Harrell-Davis estimate of the median: a mean of the order
    statistics, weighted by a Beta((n+1)/2, (n+1)/2) density.

    A workload's cells differ in size by up to 5x, so the plain median of
    12 cells is two particular cells' times, and noise on those two moves
    it.  This estimate of the same quantile draws on the ~5 middle cells."""
    x = sorted(values)
    n, a = len(x), (len(x) + 1) / 2.0
    k = 512  # midpoint-rule steps per order statistic
    t = [(j + 0.5) / (k * n) for j in range(k * n)]
    dens = [(u * (1 - u)) ** (a - 1) for u in t]
    w = [sum(dens[i * k:(i + 1) * k]) for i in range(n)]
    return sum(wi * xi for wi, xi in zip(w, x)) / sum(w)


def end_to_end(passes, setups):
    """wall_s and setup_s are wall-clock times.  The per-cell metrics use
    each cell's CPU time, which leaves out the time the host took the
    vCPUs away (steal time) and the time spent waiting for the disk."""
    walls = [p[0] for p in passes]
    minst = [sum(sum(r["stats"]["instructions"]) for r in p[1] if "stats" in r)
             / max(1e-9, sum(r["cpu_s"] for r in p[1] if "stats" in r))
             / 1e6 for p in passes]
    cell_s = [r["cpu_s"] for p in passes for r in p[1] if "cpu_s" in r]
    rss = [p[2] for p in passes]
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "sim_minst_per_s": metric(statistics.median(minst), "Minst/s"),
        "cell_p50_s": metric(hd_median(cell_s), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(statistics.median(rss), "MiB"),
    }


def per_layer(cells, results, layers, untraced_s):
    def total(field, pred=lambda c: True):
        return sum(sum(r["stats"][field]) for c, r in zip(cells, results)
                   if "stats" in r and pred(c))

    def tables(pred):
        return sum(r["stats"][f] for c, r in zip(cells, results)
                   if "stats" in r and pred(c) for f in TABLE_FIELDS)

    baseline = lambda c: c.pf not in ("none", "rnr", "rnr-combined")
    rnr_cell = lambda c: c.pf.startswith("rnr")
    issued, useful = total("pf_issued", baseline), total("pf_useful", baseline)
    rnr_classes = {f: total("rnr_" + f, rnr_cell)
                   for f in ("ontime", "early", "late", "out_of_window")}
    classified = sum(rnr_classes.values())
    L = layers
    m = {
        "workloads.emit_s": metric(L["emit_s"], "s"),
        "workloads.build_s": metric(L["build_s"], "s"),
        "workloads.records": metric(L["records_emitted"], "count"),
        "ckpt.input_s": metric(L["input_s"], "s"),
        "ckpt.warmups": metric(L["ckpt_warmups"], "count"),
        "ckpt.forks": metric(L["ckpt_forks"], "count"),
        "tracestore.encode_s": metric(L["encode_s"], "s"),
        "tracestore.publish_s": metric(L["publish_s"], "s"),
        "tracestore.decode_s": metric(L["decode_s"], "s"),
        "tracestore.stored_mib": metric(L["stored_bytes"] / MIB, "MiB"),
        "tracestore.quarantined": metric(L["quarantined"], "count"),
        "sim.self_s": metric(L["sim_self_s"], "s"),
        "sim.records": metric(L["records_simulated"], "count"),
        "sim.ns_per_record": metric(
            1e9 * L["sim_self_s"] / max(1, L["records_simulated"]), "ns"),
        "cpu.instructions": metric(total("instructions"), "count"),
        "cpu.cycles": metric(total("cycles"), "count"),
        "mem.l2_accesses": metric(total("l2_accesses"), "count"),
        "mem.l2_demand_misses": metric(total("l2_demand_misses"), "count"),
        "mem.dram_mib": metric(total("dram_bytes_total") / MIB, "MiB"),
        "prefetch.hook_s": metric(L["prefetch_hook_s"], "s"),
        "prefetch.issued": metric(issued, "count"),
        "prefetch.useful": metric(useful, "count"),
        "prefetch.useful_frac": metric(useful / issued if issued else 0.0,
                                       "ratio"),
        "prefetch.late_merged": metric(total("pf_late_merged", baseline),
                                       "count"),
        "rnr.hook_s": metric(L["rnr_hook_s"], "s"),
        "rnr.ontime": metric(rnr_classes["ontime"], "count"),
        "rnr.early": metric(rnr_classes["early"], "count"),
        "rnr.late": metric(rnr_classes["late"], "count"),
        "rnr.out_of_window": metric(rnr_classes["out_of_window"], "count"),
        "rnr.ontime_frac": metric(
            rnr_classes["ontime"] / classified if classified else 0.0,
            "ratio"),
        "rnr.recorded": metric(total("rnr_recorded", rnr_cell), "count"),
        "rnr.metadata_mib": metric(
            total("dram_bytes_metadata", rnr_cell) / MIB, "MiB"),
        "rnr.table_bytes": metric(tables(rnr_cell), "B"),
        "harness.other_s": metric(L["other_s"], "s"),
        "traced.overhead_frac": metric(
            L["wall_s"] / untraced_s - 1.0 if untraced_s else 0.0, "ratio"),
    }
    for pf in ("nextline", "bingo", "stems", "misb", "droplet"):
        m["prefetch.%s.hook_s" % pf] = metric(L.get("hook_s." + pf, 0.0), "s")
    return m


# ---- main ------------------------------------------------------------

def run_workload(binary, workload, args):
    """One run of @workload: prints the summary and the result JSON,
    returns the exit code."""
    cells = workload_cells(workload, args.seed)
    cold = workload == "capture-cold"
    # Set-up is timed several times and reported as the median; the
    # last repetition leaves the stores in the start state.
    setups_n = 3
    box = RunDir(binary, cache_on=cold)
    try:
        setups = [set_up(box, workload, cells, args.seed)
                  for _ in range(setups_n)]
        passes, spent = [], 0.0
        while not passes or spent < args.seconds:
            if passes and cold:
                # every cold pass starts from the set-up state
                set_up(box, workload, cells, args.seed)
            passes.append(timed_pass(box, cells))
            spent += passes[-1][0]
        if args.update_reference:
            update_reference(cells, passes[0][1])
        reference = load_reference()

        results = [r for p in passes for r in p[1]]
        all_cells = cells * len(passes)
        if args.trace:
            if cold:
                set_up(box, workload, cells, args.seed)
            traced, tail = traced_pass(
                box, cells, os.path.join(ROOT, ".perfbench",
                                         "spans-%s.json" % workload))
            # The traced pipeline must reproduce the harness exactly.
            for t, u in zip(traced, passes[-1][1]):
                if "stats" in t and "stats" in u and t["stats"] != u["stats"]:
                    t.pop("stats")
                    t["error"] = "traced counters differ from the harness"
            results += traced
            all_cells += cells
            untraced_s = sum(r.get("host_s", 0) for r in passes[-1][1])
            metrics = per_layer(cells, traced, tail["layers"], untraced_s)
        else:
            metrics = end_to_end(passes, setups)
    finally:
        box.close()

    failed = check(all_cells, results, reference)
    checker_ok = checker_detects_perturbation(cells, passes[0][1], reference)
    if not checker_ok:
        log("the counter check did not notice a perturbed reference")
    attempted = len(all_cells)
    n_failed = len(failed)
    correct = n_failed == 0 and checker_ok

    unreferenced = sum(1 for c in cells if c.name not in reference["cells"]
                       and c.name not in reference["digests"])
    log("%s seed %d: %d cells x %d pass(es)%s; %d cell(s) without a "
        "reference, checked by invariants only"
        % (workload, args.seed, len(cells), len(passes),
           " + traced" if args.trace else "", unreferenced))
    for name, m in metrics.items():
        log("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    log("  %-28s %14.6g %s" % ("failed_frac", n_failed / attempted, "ratio"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="all = each workload in turn, one result line each")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 = the fixed Table III inputs; any other seed "
                         "regenerates the replay workloads' graphs")
    ap.add_argument("--seconds", type=float, default=10,
                    help="least host time the timed passes cover")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    return max([run_workload(binary, w, args) for w in workloads])


if __name__ == "__main__":
    sys.exit(main())
