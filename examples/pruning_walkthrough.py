"""Why abstract provenance prunes where value/type abstraction cannot.

Reproduces the §2.2 / Fig. 6 narrative: the partial query

    q_B:  t1 <- group(T, [City, Quarter, Population], □, □)
          t2 <- arithmetic(t1, □, □)

cannot realize the user demonstration — the quarter-4 percentage needs
enrollment values from *eight* input rows to flow into one output cell, and
no instantiation of q_B merges those rows.  Abstract provenance proves it;
shape- and value-based abstractions cannot.

Run:  python examples/pruning_walkthrough.py
"""

from repro import Arithmetic, Env, Group, Hole, Partition, TableRef
from repro.abstraction import (
    ProvenanceAbstraction,
    TypeAbstraction,
    ValueAbstraction,
    abstract_eval,
)
from repro.provenance.refs import RefIndex
from health_program import build_demo, build_table  # sibling example module

H = Hole


def main() -> None:
    table = build_table()
    env = Env.of(table)
    demo = build_demo()

    q_b = Arithmetic(
        Group(TableRef("T"), keys=(0, 1, 4), agg_func=H("agg_func"),
              agg_col=H("agg_col")),
        func=H("func"), cols=H("cols"))

    print("Partial query q_B (Fig. 6):")
    from repro import to_instructions
    print(to_instructions(q_b, env))

    abs_table = abstract_eval(q_b, env)
    print(f"\nAbstract output: {abs_table.n_rows} rows x "
          f"{abs_table.n_cols} cols")
    print("Abstract provenance of output row 1:")
    decode = RefIndex(env).decode       # cell refs are bitsets over env
    for j in range(abs_table.n_cols):
        refs = sorted(repr(r) for r in decode(abs_table.cell(0, j).refs))
        shown = ", ".join(refs[:4]) + (" ..." if len(refs) > 4 else "")
        print(f"  col {j}: {{{shown}}}")

    print("\nThe demo's quarter-4 cell needs values from rows 1-8 of T in "
          "ONE cell;\nno abstract cell of q_B contains them all.\n")

    verdicts = {
        "provenance": ProvenanceAbstraction().feasible(q_b, env, demo),
        "value (Scythe-style)": ValueAbstraction().feasible(q_b, env, demo),
        "type (Morpheus-style)": TypeAbstraction().feasible(q_b, env, demo),
    }
    for name, feasible in verdicts.items():
        print(f"  {name:22s} -> {'keeps (cannot prune)' if feasible else 'PRUNES'}")

    # The correct skeleton, by contrast, must survive:
    good = Arithmetic(
        Partition(Group(TableRef("T"), keys=(0, 1, 4), agg_func=H("f"),
                        agg_col=H("c")),
                  keys=H("k"), agg_func=H("f"), agg_col=H("c")),
        func=H("f"), cols=H("c"))
    assert ProvenanceAbstraction().feasible(good, env, demo)
    print("\nThe correct group->partition->arithmetic path survives the "
          "provenance check.")


if __name__ == "__main__":
    main()
