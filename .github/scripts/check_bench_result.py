"""Check the result of one perfbench/run.py run, read from stdin.

    python perfbench/run.py --workload W --seed 0 --seconds 1 --trace T \
        | tee /dev/stderr | python .github/scripts/check_bench_result.py [METRIC ...]

The run's last line must be strict JSON (no NaN or Infinity) with
"correct": true and a number for every metric value.  Prints the metric
count and each named METRIC with its value and unit; exits 1 on a failed
check.
"""
import json
import sys


def reject(token):
    raise ValueError(f"not strict JSON: {token}")


def main(names) -> int:
    lines = sys.stdin.read().splitlines()
    if not lines:
        sys.exit("no benchmark output")
    result = json.loads(lines[-1], parse_constant=reject)
    bad = [k for k, m in result["metrics"].items()
           if type(m["value"]) not in (int, float)]
    correct = result["correct"]
    if correct is not True or bad:
        sys.exit(f"correct: {correct}; not numbers: {bad}")
    print(len(result["metrics"]), "metrics, all numbers")
    for k in names:
        m = result["metrics"][k]
        print(k, round(m["value"], 3), m["unit"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
