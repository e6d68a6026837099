"""The mutation sweep's site list (``tests/mutants.py``): one description per site."""

import mutants


def test_listed_descriptions_are_unique():
    # two sites on one line with the same text, such as the --dim choice 4
    # and its default=4, differ only by their column
    described = []
    for path in sorted((mutants.ROOT / "src" / "bellsort").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        described += [mutants.describe(path.relative_to(mutants.ROOT), source, m) for m in mutants.mutants(source)]
    assert len(described) > 400
    assert sorted({d for d in described if described.count(d) > 1}) == []
