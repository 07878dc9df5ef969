"""From CSV files to a verified query fix, in one session.

The full practitioner loop the Nautilus project (which NedExplain is
part of) aims at: load data, run a query, notice something is missing,
get the picky operator, get a *repair proposal*, verify it, inspect
provenance — all without leaving Python.

Run with:  python examples/csv_repair_workflow.py
"""

import tempfile
from pathlib import Path

from repro import (
    NedExplain,
    explain_sql,
    load_database,
    save_database,
    sql_to_canonical,
    suggest_repairs,
    verify_repair,
)
from repro.relational import evaluate_query
from repro.relational.provenance import explain_derivations


def write_csvs(directory: Path) -> None:
    """Pretend these CSVs came from an export."""
    (directory / "employees.csv").write_text(
        "eid,name,dept,salary\n"
        "1,ada,research,9000\n"
        "2,grace,research,8400\n"
        "3,alan,engineering,8400\n"
        "4,edsger,engineering,7000\n"
    )
    (directory / "bonuses.csv").write_text(
        "bid,eid,amount\n"
        "1,1,500\n"
        "2,2,300\n"
        "3,4,800\n"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_csvs(directory)

        # 1. load: headers define the schema
        db = load_database(directory)
        print("loaded:", db)
        print()

        # 2. the query under suspicion: well-paid employees with a bonus
        sql = """
            SELECT employees.name, bonuses.amount
            FROM employees, bonuses
            WHERE employees.eid = bonuses.eid
              AND employees.salary > 8400
        """
        canonical = sql_to_canonical(sql, db.schema)
        result = evaluate_query(
            canonical.root, db.instance(), canonical.aliases
        )
        print("result:")
        for row in result.result_values():
            print("  ", row)
        print()

        # 3. why is grace missing?
        question = "(employees.name: grace)"
        engine = NedExplain(canonical, database=db)
        report = engine.explain(question)
        print("why not", question, "?")
        print(report.summary())
        print()

        # 4. propose and verify a fix
        for suggestion in suggest_repairs(engine, report):
            print("repair:", verify_repair(engine, suggestion))
        print()

        # 5. inspect how the present answers were derived
        print("how-provenance of the current result:")
        print(explain_derivations(result))
        print()

        # 6. one-call API for quick checks
        quick = explain_sql(db, sql, "(employees.name: edsger)")
        print("and why not edsger?")
        print(quick.summary())

        # 7. round-trip the database for colleagues
        save_database(db, directory / "export")
        again = load_database(directory / "export")
        print()
        print("re-exported and re-loaded:", again)


if __name__ == "__main__":
    main()
