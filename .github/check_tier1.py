"""Judge a tier-1 JUnit XML report.

The tier-1 command exits 1 on every commit, because
tests/test_acceptance.py::test_c06_multiplication_identity fails by design
(the scheme's noisy products decrypt at chance; see the README, "Acceptance
status"). This check passes exactly when that test fails and nothing else
fails, errors or fails to collect, so a regression is not hidden behind the
known failure, and a c06 that starts passing (or stops running) is reported.

Usage:
    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python3 .github/check_tier1.py tier1.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = ("tests.test_acceptance", "test_c06_multiplication_identity")


def problems(root: ET.Element) -> list[str]:
    found, passed, expected_seen = [], 0, False
    for case in root.iter("testcase"):
        key = (case.get("classname", ""), case.get("name", ""))
        bad = [child.tag for child in case if child.tag in ("failure", "error")]
        if key == EXPECTED_FAILURE:
            expected_seen = True
            if bad != ["failure"]:
                found.append(f"{key[0]}::{key[1]} was expected to fail, got {bad or 'a pass'}")
        elif bad:  # collection errors appear as testcases with an <error>
            found.append(f"{'/'.join(bad)}: {key[0]}::{key[1]}")
        elif case.find("skipped") is None:
            passed += 1
    if not expected_seen:
        found.append(f"{EXPECTED_FAILURE[0]}::{EXPECTED_FAILURE[1]} did not run")
    if passed == 0:
        found.append("no test passed")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    found = problems(ET.parse(argv[1]).getroot())
    for line in found:
        print(f"tier-1: {line}")
    if not found:
        print("tier-1: only the known failure (test_c06_multiplication_identity) fails")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
