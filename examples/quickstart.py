"""Quickstart: synthesize an analytical SQL query from a tiny demonstration.

This walks the paper's §1 example: given the sales table T, demonstrate
"sum Sales per ID" by dragging input cells into two output rows, then let
the synthesizer recover the GROUP BY query.

Run:  python examples/quickstart.py
"""

from repro import (
    Demonstration,
    Env,
    SynthesisConfig,
    Synthesizer,
    Table,
    cell,
    func,
    make_engine,
    synthesize,
    to_instructions,
    to_sql,
)


def main() -> None:
    # --- 1. the input table (paper §1) -------------------------------------
    table = Table.from_rows("T", ["ID", "Quarter", "Sales"], [
        ["A", 1, 10],
        ["A", 2, 20],
        ["A", 3, 15],
        ["B", 1, 20],
        ["B", 2, 15],
    ])
    print("Input table T:")
    print(table)

    # --- 2. the computation demonstration ----------------------------------
    # Two output rows: for each, the user drags the ID cell and *shows the
    # computation* of the aggregate — not just its value.
    demo = Demonstration.of([
        [cell("T", 0, 0), func("sum", cell("T", 0, 2), cell("T", 1, 2),
                               cell("T", 2, 2))],
        [cell("T", 3, 0), func("sum", cell("T", 3, 2), cell("T", 4, 2))],
    ])
    print("\nDemonstration E (cell-level computation traces):")
    for row in demo.cells:
        print("  ", [repr(e) for e in row])

    # --- 3. synthesize -------------------------------------------------------
    # Evaluation runs on the columnar engine, which caches evaluated
    # subtrees by structural key and runs vectorized kernels.
    config = SynthesisConfig(max_operators=1, timeout_s=10)
    result = synthesize([table], demo, abstraction="provenance",
                        config=config)
    # The row-at-a-time reference interpreter is injected, not configured;
    # results are identical either way.
    reference = Synthesizer("provenance", config, engine=make_engine("row"))
    assert reference.run([table], demo).queries == result.queries

    env = Env.of(table)
    print(f"\nSearch: visited {result.stats.visited} queries, "
          f"pruned {result.stats.pruned}, "
          f"found {len(result.queries)} consistent")

    top = result.queries[0]
    print("\nTop-ranked query (instruction form):")
    print(to_instructions(top, env))
    print("\nAs SQL:")
    print(to_sql(top, env))

    from repro import evaluate
    print("\nIts output:")
    print(evaluate(top, env))


if __name__ == "__main__":
    main()
