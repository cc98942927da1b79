"""Write rank1_digests.json: the sha256 of each rank1 job's stdout at the default seed.

The rank1 workload compares every job's output against these digests when it
runs with the default seed, so an output change counts as a failed job.  Run
this only when an output change is intended:

    python3 perfbench/make_digests.py
"""

import hashlib
import json

import run
import workloads


def main():
    run._import_package()
    w, jobs = workloads.make_jobs("rank1", workloads.DEFAULT_SEED, workloads.DIGEST_CYCLES)
    w.digests = None  # check everything but the digests themselves
    digests = {}
    for job in jobs:
        code, out = w.run(job.inputs)
        error = w.check(job, (code, out))
        if error is not None:
            raise SystemExit(f"job {' '.join(job.spec)}: {error}; no digests written")
        digests[" ".join(job.spec)] = hashlib.sha256(out.encode()).hexdigest()
    doc = {"seed": workloads.DEFAULT_SEED, "cycles": workloads.DIGEST_CYCLES, "digests": digests}
    workloads.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS}")


if __name__ == "__main__":
    main()
