"""Generate a corpus, benchmark it through the CLI, and read the CSV back.

The same flow works from a shell:

    graphbalance generate two-valued --m 5 --heavy 3 --light 6 \
        --W 12 --w 5 --seed 0 --out corpus/i0.json
    graphbalance bench --dir corpus --out bench.csv
"""

import csv
import tempfile
from pathlib import Path

from graphbalance.cli import main


def run_demo() -> None:
    with tempfile.TemporaryDirectory(prefix="graphbalance-demo-") as tmp:
        workdir = Path(tmp)
        corpus = workdir / "corpus"
        corpus.mkdir()

        print(f"writing corpus under {corpus}")
        for seed in range(8):
            code = main(
                [
                    "generate", "two-valued",
                    "--m", "5", "--heavy", "3", "--light", "6",
                    "--W", "12", "--w", "5",
                    "--seed", str(seed),
                    "--out", str(corpus / f"two_valued_{seed}.json"),
                ]
            )
            assert code == 0
        for seed in range(4):
            code = main(
                [
                    "generate", "general",
                    "--m", "4", "--n", "8", "--beta", "7/10", "--Wmax", "15",
                    "--seed", str(seed),
                    "--out", str(corpus / f"general_{seed}.json"),
                ]
            )
            assert code == 0

        report = workdir / "bench.csv"
        assert main(["bench", "--dir", str(corpus), "--out", str(report)]) == 0

        rows = list(csv.DictReader(report.read_text().splitlines()))

    print(f"\n{len(rows)} instances benchmarked")
    header = f"{'instance':<22} {'makespan':>8} {'t*':>4} {'lb':>4} {'ratio':>7} {'cores':>5} {'pushes':>6}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['instance']:<22} {row['makespan']:>8} {row['t_star']:>4} "
            f"{row['lower_bound']:>4} {row['ratio']:>7} {row['cores']:>5} {row['pushes']:>6}"
        )
    print("\nresolver work stays at ceil(log2(total weight)) + 2 guesses per instance.")


if __name__ == "__main__":
    run_demo()
