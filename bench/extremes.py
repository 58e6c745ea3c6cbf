"""One traced run of the ladder extremes W(12) and U(6,6).  From the root:

    python3 bench/extremes.py

Each takes over 20 s to tabulate, too long for the repeated workloads.  For
each it prints knit, RadicalTable and irreducible-path span seconds, whether
the span gives the same layers, and the layer dimensions summed over all
ordered node pairs for each radical power n (the "stored rows" per power).
bench/NOTES.md records a run next to the ROADMAP baseline.
"""

import json
import time

from run import SRC, load_stringar
from workloads import family_spec, layer_dims

EXTREMES = ["W12", "U6_6"]


def main():
    sa, _ = load_stringar(SRC)
    for name in EXTREMES:
        p = family_spec(sa, name).presentation
        t0 = time.perf_counter()
        G = sa.knit(p)
        t1 = time.perf_counter()
        T = sa.RadicalTable(G)
        t2 = time.perf_counter()
        same = T.layers_equal_to_span()
        t3 = time.perf_counter()
        per_power = [0] * (T.nilpotency + 1)
        for _, _, dims in layer_dims(G, T):
            for n, d in enumerate(dims):
                per_power[n] += d
        print(json.dumps({
            "algebra": name,
            "nodes": len(G.nodes),
            "arrows": len(G.arrows),
            "knit_s": round(t1 - t0, 3),
            "radical.table_s": round(t2 - t1, 3),
            "radical.span_s": round(t3 - t2, 3),
            "span_equals_recursion": same,
            "nilpotency": T.nilpotency,
            "layer_dims_per_power": per_power,
        }), flush=True)


if __name__ == "__main__":
    main()
