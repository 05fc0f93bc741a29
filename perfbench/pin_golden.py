"""Record the SHA-256 of every hashed output into perfbench/golden.json.

    python3 perfbench/pin_golden.py

Runs each sim workload at its benchmark replication count for workload seeds
0..10, and the report_batch tables pass once (it does not depend on the seed).
Run it only when outputs change on purpose; the benchmark then holds every
later commit to the new hashes.
"""
import json

import workloads as W

SEEDS = range(11)


def main() -> None:
    golden = {}
    for name in ("sim_m8", "sim_m40"):
        seeds = {}
        for seed in SEEDS:
            wl = W.make(name, seed)
            wl.setup()
            wl.out_dir.mkdir(parents=True, exist_ok=True)
            rc, _, _ = wl.call(wl.workers, wl.reps)
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: simulate exited {rc}")
            seeds[str(seed)] = {n: W.sha256((wl.out_dir / n).read_bytes())
                                for n in W.HASHED_OUTPUTS}
            wl.cleanup()
            print(name, seed, flush=True)
        golden[name] = {"reps": wl.reps, "seeds": seeds}

    tables = W.tables_pass()
    golden["report_batch"] = {"tables": {n: W.sha256(t.encode()) for n, t in tables.items()}}
    W.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
