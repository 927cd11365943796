"""Records and summarizes sets of benchmark runs.

Run from the repository root:

    python3 perfbench/runs/collect.py run SET WORKLOAD...   # seeds 1-10
    python3 perfbench/runs/collect.py report SET [SET2]

`run` runs `bash perfbench/run.sh` with --trace 0 and BENCHMARK.json's
run_seconds once per seed on each workload and appends one JSON object per
run, {"provenance": ..., "result": ...}, to perfbench/runs/SET/WORKLOAD.jsonl.
The provenance's source_hash names the sources the run was built from.

`report` prints, per workload and end-to-end metric, the median of the set's
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Given a second set it also prints how much worse the second
set's median is than the first's, as a share of the first.
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(set_name, workloads):
    seconds = spec()["run_seconds"]
    out_dir = os.path.join(RUNS, set_name)
    os.makedirs(out_dir, exist_ok=True)
    for w in workloads:
        for seed in SEEDS:
            args = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(args, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            rec = {"provenance": json.loads(lines[-2])["provenance"], "result": json.loads(lines[-1])}
            with open(os.path.join(out_dir, w + ".jsonl"), "a") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
            print(w, seed, "ok", flush=True)


def load(set_name):
    out = {}
    d = os.path.join(RUNS, set_name)
    for name in sorted(os.listdir(d)):
        if name.endswith(".jsonl"):
            with open(os.path.join(d, name)) as f:
                out[name[:-6]] = [json.loads(line) for line in f if line.strip()]
    return out


def medians_and_spreads(recs, metrics):
    out = {}
    for m in metrics:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[m["name"]] = (med, (q3 - q1) / med)
    return out


def worse(first, second, better):
    d = (second - first) / first
    return d if better == "lower" else -d


def report(sets):
    metrics = spec()["end_to_end"]
    loaded = [load(s) for s in sets]
    for w, recs in loaded[0].items():
        hashes = sorted({r["provenance"]["source_hash"] for r in recs})
        print(f"{w}: {len(recs)} runs, source_hash {', '.join(hashes)}")
        first = medians_and_spreads(recs, metrics)
        second = medians_and_spreads(loaded[1][w], metrics) if len(loaded) > 1 and w in loaded[1] else None
        for m in metrics:
            med, spread = first[m["name"]]
            line = f"  {m['name']:<20} median {med:<14.6g} spread {spread:.3f} (bound {m['bound']})"
            if second:
                line += f"  second spread {second[m['name']][1]:.3f}, worse by {worse(med, second[m['name']][0], m['better']):+.3f}"
            print(line)


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "report":
        report(sys.argv[2:])
    else:
        sys.exit(__doc__)
