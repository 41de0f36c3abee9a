"""Two checkouts side by side: a git revision and the working tree.

``pair(rev)`` yields the paths of two fresh trees, ``<base>/parent`` holding
``git archive rev`` and ``<base>/change`` holding the working tree's files as
git sees them: every tracked file as it is on disk, and every untracked file
that ``.gitignore`` does not exclude.  Both paths have the same length, so a
run in one tree and a run in the other differ only by the code.  The base
directory is temporary and is removed when the ``with`` block ends.

It uses local git only; nothing is fetched.
"""

import contextlib
import io
import shutil
import subprocess
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def archive(rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and not-ignored untracked files under ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        source = ROOT / name.decode()
        if source.is_file():  # a tracked file deleted on disk is left out
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


@contextlib.contextmanager
def pair(rev: str):
    """Yield (parent tree, change tree): ``rev`` and the working tree."""
    base = Path(tempfile.mkdtemp(prefix="alpha_spectra_trees_"))
    try:
        parent, change = base / "parent", base / "change"
        archive(rev, parent)
        copy_working_tree(change)
        yield parent, change
    finally:
        shutil.rmtree(base)
