#!/usr/bin/env python3
"""Render the speed tables of the docs from committed benchmark records.

    python3 tools/perf_tables.py BENCH_perf.jsonl > PERF_TABLES.md

Each input line is one `--out` record of the repository benchmark
(`benchmark/`). Untraced records give the end-to-end metrics and the
workload details (the ladder's are the paper's Tables II and III); the
traced record of each workload gives its per-layer metrics. A value over
several untraced runs is their median, with quartiles by the method of
`statistics.quantiles`, which the benchmark's own `compare` uses too.

Exit 1, writing nothing, when a record failed the benchmark's output
checks, counts a failed operation, or comes from another host than the
first record: such numbers are not comparable measurements.
"""

import json
import statistics
import sys

# Table III of the paper: host instructions per simulated instruction on
# Alpha, ARM and PowerPC.
PAPER_T3 = {
    "base": (104, 135, 144),
    "decode_info": (46, 54, 63),
    "full_info": (151, 268, 222),
    "block_call": (-52, -50, -50),
    "multiple_calls": (238, 223, 213),
    "speculation": (15, 33, 27),
}

SPEC_PAIRS = [("block-decode", "block-decode-spec"), ("block-all", "block-all-spec"),
              ("one-decode", "one-decode-spec"), ("one-all", "one-all-spec")]


def spec_cost(ns):
    """Mean spec ÷ non-spec cost over `SPEC_PAIRS`."""
    return statistics.fmean(ns[s] / ns[b] for b, s in SPEC_PAIRS)


# The paper's qualitative claims as thresholds on speed ratios, restated on
# ns per instruction (MIPS = 1000 / ns), with a noise allowance on the
# closest comparisons. Each maps the per-rung costs to (holds, measured).
CLAIMS = [
    ("semantic detail costs at least 2x: step-all / one-all > 2",
     lambda ns: (ns["step-all"] > 2 * ns["one-all"],
                 f"{ns['step-all'] / ns['one-all']:.2f}x")),
    ("block calls are not slower than per-instruction calls: block-min / one-min "
     "and block-all / one-all <= 1/0.92",
     lambda ns: (ns["block-min"] * 0.92 <= ns["one-min"]
                 and ns["block-all"] * 0.92 <= ns["one-all"],
                 f"{ns['block-min'] / ns['one-min']:.2f}x, "
                 f"{ns['block-all'] / ns['one-all']:.2f}x")),
    ("informational order min < decode < all on one-call interfaces, 2 % slack "
     "on each step",
     lambda ns: (ns["one-min"] < ns["one-all"]
                 and ns["one-decode"] * 1.02 > ns["one-min"]
                 and ns["one-all"] * 1.02 > ns["one-decode"],
                 f"{ns['one-min']:.1f} / {ns['one-decode']:.1f} / {ns['one-all']:.1f} ns")),
    ("speculation is not free: mean spec / non-spec over the four block and one "
     "pairs >= 1.01",
     lambda ns: (spec_cost(ns) >= 1.01, f"{spec_cost(ns):.2f}x")),
    ("lowest vs highest detail at least 3x: step-all-spec / block-min >= 3",
     lambda ns: (ns["step-all-spec"] >= 3 * ns["block-min"],
                 f"{ns['step-all-spec'] / ns['block-min']:.2f}x")),
    ("fast-forward beats block-min: fast-forward / block-min < 1",
     lambda ns: (ns["fast-forward"] < ns["block-min"],
                 f"{ns['fast-forward'] / ns['block-min']:.2f}x")),
]


def fmt(v):
    a = abs(v)
    if v == int(v):
        return str(int(v))
    if a >= 100:
        return f"{v:.0f}"
    if a >= 10:
        return f"{v:.1f}"
    if a >= 1:
        return f"{v:.2f}"
    return f"{v:#.3g}"


def summary(values):
    """`median [q1, q3]` of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{fmt(statistics.median(values))} [{fmt(q1)}, {fmt(q3)}]"


def load(path):
    records, problems = [], []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            r = json.loads(line)
            where = f"{path}:{i}: {r['workload']} seed {r['seed']}"
            if r["correct"] is not True:
                problems.append(f"{where}: not correct")
            if r["failed"] > 0:
                problems.append(f"{where}: {r['failed']} failed operation(s)")
            if records and r["host"] != records[0]["host"]:
                problems.append(f"{where}: host {r['host']} differs from {records[0]['host']}")
            records.append(r)
    return records, problems


def render(records):
    out = []
    w = out.append
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    runs = {wl: [r for r in untraced if r["workload"] == wl] for wl in workloads}
    host = records[0]["host"]
    seeds = sorted({r["seed"] for r in untraced})

    w("# Speed tables from the committed benchmark runs\n")
    w("Generated by `python3 tools/perf_tables.py BENCH_perf.jsonl > PERF_TABLES.md`;")
    w("do not edit. `BENCH_perf.jsonl` holds the `--out` records of the repository")
    w(f"benchmark (`benchmark/`): {len(untraced)} untraced runs on seeds "
      f"{seeds[0]}–{seeds[-1]} and {len(traced)} traced")
    w(f"ones, all on one host: {host['nproc']} CPUs ({host['cpu']}), Linux")
    w(f"{host['kernel']}. Every record passed its output checks with no failed")
    w("operation. A value over several runs reads `median [q1, q3]`; absolute")
    w("numbers on a shared VM drift between sessions, so compare ratios within")
    w("one file.\n")

    w("## End-to-end metrics (untraced runs)\n")
    w("| workload | metric | unit | median [q1, q3] | runs |")
    w("|---|---|---|---|---|")
    for wl in workloads:
        for name, m in runs[wl][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs[wl]]
            w(f"| {wl} | `{name}` | {m['unit']} | {summary(values)} | {len(values)} |")

    ladder = runs["ladder"]
    rung_ns = [{k[3:]: v for k, v in r["details"].items() if k.startswith("ns.")}
               for r in ladder]
    t3 = [{k[3:]: v for k, v in r["details"].items() if k.startswith("t3.")} for r in ladder]
    rungs = list(rung_ns[0])
    median_ns = {k: statistics.median(ns[k] for ns in rung_ns) for k in rungs}

    w("\n## Table II: cost per interface (ladder)\n")
    w("ns per simulated instruction over the 24 suite kernels of all three ISAs")
    w("(`detail.ns.<rung>`: the rung's median round time ÷ its instructions), and")
    w("the same run's one-min cost as the unit (`× one-min`, the median of the")
    w("per-run ratios). The 12 standard interfaces run on the default (compiled)")
    w("backend; the last four rungs are fast-forward on block-min and the backend")
    w("ablation.\n")
    w("| rung | ns/inst | × one-min |")
    w("|---|---|---|")
    for k in rungs:
        w(f"| {k} | {summary([ns[k] for ns in rung_ns])} | "
          f"{summary([ns[k] / ns['one-min'] for ns in rung_ns])} |")

    w("\n## Table III: cost of detail (ladder)\n")
    w("The paper's decomposition of Table II: base = one-min; decode and full")
    w("information = one-decode and one-all over the base; block call = block-min")
    w("over the base; multiple calls = step-all over one-all; speculation = the")
    w("mean increment of the five spec over non-spec pairs (`detail.t3.<row>`).")
    w("The paper counts host instructions, this table ns; `× base` compares the")
    w("two.\n")
    w("| row | ns/inst | × base | paper (alpha / arm / ppc host insts) | paper × base |")
    w("|---|---|---|---|---|")
    for row, paper in PAPER_T3.items():
        ratios = " / ".join(f"{p / b:.2f}" for p, b in zip(paper, PAPER_T3["base"]))
        w(f"| {row} | {summary([t[row] for t in t3])} | "
          f"{summary([t[row] / t['base'] for t in t3])} | "
          f"{' / '.join(map(str, paper))} | {ratios} |")

    w("\n## Spread, footnote 5 and fast-forward (ladder)\n")
    w("| quantity | measured | paper |")
    w("|---|---|---|")
    w(f"| spread: slowest ÷ fastest standard interface (`detail.spread`) | "
      f"{summary([r['details']['spread'] for r in ladder])} | up to 14.4 |")
    w(f"| footnote 5: one-min interpreted ÷ compiled (`detail.footnote5`) | "
      f"{summary([r['details']['footnote5'] for r in ladder])} | 205.5 ÷ 104 = 1.98 |")
    w(f"| fast-forward ÷ block-min, ns/inst | "
      f"{summary([ns['fast-forward'] / ns['block-min'] for ns in rung_ns])} | "
      f"below 1: fast-forward publishes nothing |")

    w("\n## The paper's shape claims (ladder)\n")
    w("Each claim is checked on the median ns/inst of every rung over the runs")
    w("(*verdict*), and on each run by itself (*runs holding*).\n")
    w("| claim | measured | verdict | runs holding |")
    w("|---|---|---|---|")
    for text, check in CLAIMS:
        holds, measured = check(median_ns)
        per_run = sum(check(ns)[0] for ns in rung_ns)
        verdict = "holds" if holds else "does not hold"
        w(f"| {text} | {measured} | {verdict} | {per_run} of {len(rung_ns)} |")

    w("\n## Trace and serve details (untraced runs)\n")
    w("`ns.*` is ns per simulated instruction (trace-replay: the live block-all run,")
    w("recording, `Trace::read_from`, one- and two-shard replay), `*_ms` a request")
    w("round trip, `*_requests` a count per run, `store_hit_frac` a percentage,")
    w("`bytes_per_inst` encoded trace bytes per instruction.\n")
    w("| workload | detail | median [q1, q3] |")
    w("|---|---|---|")
    for wl in workloads:
        if wl == "ladder":
            continue
        for name in runs[wl][0]["details"]:
            w(f"| {wl} | `{name}` | {summary([r['details'][name] for r in runs[wl]])} |")

    w("\n## Per-layer metrics (one traced run per workload)\n")
    w("Defined in `benchmark/README.md`. A layer a workload never calls reads 0.\n")
    w("| metric | unit | " + " | ".join(f"{r['workload']} (seed {r['seed']})" for r in traced)
      + " |")
    w("|---|---|" + "---|" * len(traced))
    for name, m in traced[0]["metrics"].items():
        w(f"| `{name}` | {m['unit']} | "
          + " | ".join(fmt(r["metrics"][name]["value"]) for r in traced) + " |")
    return "\n".join(out) + "\n"


def main():
    if len(sys.argv) != 2:
        print("usage: perf_tables.py BENCH_perf.jsonl > PERF_TABLES.md", file=sys.stderr)
        sys.exit(2)
    records, problems = load(sys.argv[1])
    if problems:
        for p in problems:
            print(f"perf_tables: {p}", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(render(records))


if __name__ == "__main__":
    main()
