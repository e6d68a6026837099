"""The mutation sweep's site list (``tests/mutants.py``): one description per site, and ``--since``."""

import shutil
import subprocess
import sys
from pathlib import Path

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


def test_since_lists_only_the_sites_on_changed_lines(tmp_path):
    # in a committed copy: a clean tree has no site, and one appended line has exactly its own
    copy = tmp_path / "repo"
    package = Path("src", "bellsort")
    shutil.copytree(mutants.ROOT / package, copy / package, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "tests").mkdir()
    shutil.copy(mutants.ROOT / "tests" / "mutants.py", copy / "tests")
    git = ["git", "-C", str(copy), "-c", "user.name=mutants", "-c", "user.email=mutants@localhost"]
    git += ["-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run([*git, *command], check=True, capture_output=True)

    def listed():
        command = [sys.executable, str(copy / "tests" / "mutants.py"), "--list", "--since", "HEAD"]
        return subprocess.run(command, check=True, capture_output=True, text=True).stdout.splitlines()

    assert listed() == ["0 mutants in 0 files"]
    relative = package / "modes.py"
    source = (copy / relative).read_text(encoding="utf-8")
    edited = source + "SYNTHETIC = (1 + 2) < 4\n"
    (copy / relative).write_text(edited, encoding="utf-8")
    added = len(edited.splitlines())
    expected = [mutants.describe(relative, edited, m) for m in mutants.mutants(edited) if m.line == added]
    assert len(expected) == 5  # the comparison, the sum and its three constants
    assert listed() == ["5 mutants in 1 files", *expected]


def test_list_gives_no_site_on_an_lru_cache_line():
    # a cache bound changes no result, so maxsize n -> n + 1 can only survive
    package = mutants.ROOT / "src" / "bellsort"
    cached = {
        f"{path.relative_to(mutants.ROOT)}:{number}"
        for path in package.glob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if line.startswith("@lru_cache(")
    }
    command = [sys.executable, str(mutants.ROOT / "tests" / "mutants.py"), "--list", *sorted(package.glob("*.py"))]
    listed = subprocess.run(command, check=True, capture_output=True, text=True).stdout.splitlines()[1:]
    assert len(cached) == 8 and len(listed) > 400
    assert [line for line in listed if line.split(" ")[0].rsplit(":", 1)[0] in cached] == []
