"""Child process of one run: ``python -m benchmarks.e2e.child <request.json>``.

Reads the request the driver wrote, does the work, and writes the result
next to it.  The last thing it does is prove it leaves no process behind.
"""

import json
import multiprocessing
import sys

from benchmarks.e2e.workloads import run_child


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    result = run_child(request)
    # every backend was closed in a finally: nothing of ours may still run
    result["children_left"] = len(multiprocessing.active_children())
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if result["children_left"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
