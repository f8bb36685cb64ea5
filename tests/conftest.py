"""Shared fixtures: canonical log lines and throwaway git repositories."""

import hashlib
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

from forgepulse import IdentityConfig, RecordBlock, build_monthly_series

DATA_DIR = Path(__file__).parent / "data"


def sha_for(tag) -> str:
    return hashlib.sha1(f"test:{tag}".encode()).hexdigest()


def make_line(tag=0, stamp="2015-03-10T14:22:05+00:00", email="alice@intel.com",
              name="Alice", parents=1) -> str:
    return f"{sha_for(tag)}\t{stamp}\t{email}\t{name}\t{parents}"


def record_line(record) -> str:
    """A CommitRecord as a canonical log line, with parent count 2 for a
    merge and 1 otherwise."""
    parents = "2" if record.is_merge else "1"
    return "\t".join((record.hash, record.authored_at.isoformat(), record.author_email, record.author_name, parents))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


class RepoBuilder:
    def __init__(self, root: Path):
        self.root = root
        self._run("init", "-q", "-b", "main")
        self._run("config", "user.name", "Test User")
        self._run("config", "user.email", "test@example.com")
        self.counter = 0

    def _run(self, *args, env_extra=None):
        import os

        env = dict(os.environ)
        if env_extra:
            env.update(env_extra)
        subprocess.run(
            ["git", "-C", str(self.root), *args],
            check=True,
            capture_output=True,
            env=env,
        )

    def commit(self, email="alice@intel.com", name="Alice",
               date="2015-03-10T14:22:05+00:00", message=None):
        self.counter += 1
        path = self.root / "file.txt"
        path.write_text(f"change {self.counter}\n", encoding="utf-8")
        self._run("add", "file.txt")
        self._run(
            "commit", "-q", "--allow-empty", "-m", message or f"commit {self.counter}",
            env_extra={
                "GIT_AUTHOR_NAME": name,
                "GIT_AUTHOR_EMAIL": email,
                "GIT_AUTHOR_DATE": date,
                "GIT_COMMITTER_NAME": name,
                "GIT_COMMITTER_EMAIL": email,
                "GIT_COMMITTER_DATE": date,
            },
        )

    def branch_and_merge(self, email="alice@intel.com", name="Alice",
                         date="2015-04-01T00:00:00+00:00"):
        """Create a side branch with one commit and merge it back (one merge commit)."""
        self._run("checkout", "-q", "-b", "side")
        side = self.root / "side.txt"
        side.write_text("side change\n", encoding="utf-8")
        self._run("add", "side.txt")
        self._run(
            "commit", "-q", "-m", "side work",
            env_extra={
                "GIT_AUTHOR_NAME": name,
                "GIT_AUTHOR_EMAIL": email,
                "GIT_AUTHOR_DATE": date,
                "GIT_COMMITTER_NAME": name,
                "GIT_COMMITTER_EMAIL": email,
                "GIT_COMMITTER_DATE": date,
            },
        )
        self._run("checkout", "-q", "main")
        self._run(
            "merge", "-q", "--no-ff", "-m", "merge side", "side",
            env_extra={
                "GIT_AUTHOR_NAME": name,
                "GIT_AUTHOR_EMAIL": email,
                "GIT_AUTHOR_DATE": date,
                "GIT_COMMITTER_NAME": name,
                "GIT_COMMITTER_EMAIL": email,
                "GIT_COMMITTER_DATE": date,
            },
        )


@pytest.fixture
def repo_builder(tmp_path):
    def build(subdir="repo"):
        root = tmp_path / subdir
        root.mkdir()
        return RepoBuilder(root)

    return build


def utc(year, month, day=1, hour=0, minute=0, second=0):
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


def series_of(records, config=IdentityConfig()):
    """``build_monthly_series`` over a list of CommitRecords, as one block."""
    return build_monthly_series([RecordBlock.from_records(records)], config)
