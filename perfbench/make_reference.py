"""Write perfbench/reference_lhs.json: the quadrature side of the default sweep.

    PYTHONPATH=src python3 perfbench/make_reference.py

The closed-forms workload never runs quadrature, so it checks its
``evaluate_rhs`` values on the default grids against these LHS values at
the verification tolerance.  Only a sweep in which every evaluated row
passed is written.  The file was made once, at the commit that added the
benchmark; remaking it from a later commit would let that commit grade
itself.
"""

import json
from pathlib import Path

import logtrig as lt


def main() -> int:
    config = lt.RunConfig(jobs=1)
    report = lt.run_verification(config)
    rows = []
    for row in report.rows:
        if row.status == "skipped":
            continue
        if row.status != "pass":
            raise SystemExit(f"{row.case_id} {row.params}: {row.status}")
        lhs = complex(row.lhs)
        rows.append([row.case_id, row.params, lhs.real,
                     lhs.imag if isinstance(row.lhs, complex) else None])
    path = Path(__file__).with_name("reference_lhs.json")
    path.write_text('{"rtol": %r, "atol": %r, "rows": [\n%s\n]}\n' % (
        config.rtol, config.atol, ",\n".join(json.dumps(r) for r in rows)))
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
