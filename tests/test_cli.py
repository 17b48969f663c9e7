"""CLI tests: file loading, update parsing, each subcommand end to end."""

import json
import re

import pytest

from repro.errors import ReproError
from repro.cli import load_constraints, load_database, load_updates, main, parse_update
from repro.updates.update import Deletion, Insertion, Modification

CONSTRAINTS = """\
%% referential
panic :- emp(E,D,S) & not dept(D)
%% salary-cap
panic :- emp(E,D,S) & S > 100
%% salary-cap-high
panic :- emp(E,D,S) & S > 200
%% floor
panic :- emp(E,D,S) & salFloor(D,F) & S < F
"""


@pytest.fixture
def constraint_file(tmp_path):
    path = tmp_path / "constraints.dl"
    path.write_text(CONSTRAINTS)
    return str(path)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(
        json.dumps(
            {
                "emp": [["ann", "toys", 50]],
                "dept": [["toys"]],
                "salFloor": [["toys", 40]],
            }
        )
    )
    return str(path)


class TestParsing:
    def test_parse_insert(self):
        assert parse_update("+emp(ann, toys, 50)") == Insertion(
            "emp", ("ann", "toys", 50)
        )

    def test_parse_delete(self):
        assert parse_update("-dept(toys)") == Deletion("dept", ("toys",))

    def test_parse_quoted_and_numeric(self):
        update = parse_update("+p('two words', -3, 2.5)")
        assert update.values == ("two words", -3, 2.5)

    def test_parse_zero_ary(self):
        assert parse_update("+flag()") == Insertion("flag", ())

    def test_parse_modification(self):
        update = parse_update("~emp(ann, 50)->(ann, 60)")
        assert update == Modification("emp", ("ann", 50), ("ann", 60))

    def test_parse_quoted_value_containing_comma(self):
        # Regression: values used to be split on raw commas, so a quoted
        # "a,b" parsed as two malformed pieces and raised.
        assert parse_update('+p("a,b")') == Insertion("p", ("a,b",))
        update = parse_update('+p("a,b", 3, name)')
        assert update.values == ("a,b", 3, "name")
        update = parse_update('~p("x,y")->("z,w")')
        assert update == Modification("p", ("x,y",), ("z,w",))

    def test_bad_updates(self):
        for bad in (
            "emp(a)",
            "+emp",
            "+emp(X)",
            "",
            "~emp(a)",
            "~emp(a)->b",
            '+p("unterminated)',
            "+p(1 2)",
        ):
            with pytest.raises(ReproError):
                parse_update(bad)

    def test_load_updates_skips_comments(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("# header\n+p(1)\n\n-p(2)\n~p(3)->(4)\n")
        updates = load_updates(str(path))
        assert updates == [
            Insertion("p", (1,)),
            Deletion("p", (2,)),
            Modification("p", (3,), (4,)),
        ]

    def test_load_constraints_names(self, constraint_file):
        constraints = load_constraints(constraint_file)
        assert constraints.names() == [
            "referential",
            "salary-cap",
            "salary-cap-high",
            "floor",
        ]

    def test_load_constraints_default_names(self, tmp_path):
        path = tmp_path / "plain.dl"
        path.write_text("panic :- e(X)\n%%\npanic :- f(X)\n")
        constraints = load_constraints(str(path))
        assert constraints.names() == ["c1", "c2"]

    def test_load_database(self, db_file):
        db = load_database(db_file)
        assert db.facts("emp") == {("ann", "toys", 50)}

    def test_comment_only_header_block_skipped(self, tmp_path):
        path = tmp_path / "header.dl"
        path.write_text(
            "% file header comment\n% more commentary\n%% real\npanic :- e(X)\n"
        )
        constraints = load_constraints(str(path))
        assert constraints.names() == ["real"]

    def test_shipped_sample_files_load(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        sample = root / "examples" / "data" / "employee_constraints.dl"
        constraints = load_constraints(str(sample))
        assert "salary-floor" in constraints.names()
        db = load_database(str(root / "examples" / "data" / "employee_db.json"))
        assert db.facts("dept")


class TestCommands:
    def test_classify(self, constraint_file, capsys):
        assert main(["classify", constraint_file]) == 0
        out = capsys.readouterr().out
        assert "referential" in out and "CQ+neg" in out
        assert "salary-cap" in out and "CQ+arith" in out

    def test_check_plain_evaluation(self, constraint_file, db_file, capsys):
        assert main(["check", constraint_file, "--db", db_file]) == 0
        out = capsys.readouterr().out
        assert out.count("holds") == 4

    def test_check_detects_violation(self, constraint_file, tmp_path, capsys):
        db_path = tmp_path / "bad.json"
        db_path.write_text(json.dumps({"emp": [["x", "ghost", 50]], "dept": []}))
        assert main(["check", constraint_file, "--db", str(db_path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_check_update_pipeline(self, constraint_file, db_file, capsys):
        code = main(
            [
                "check",
                constraint_file,
                "--db",
                db_file,
                "--update",
                "+emp(bob, toys, 60)",
                "--local",
                "emp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "floor: satisfied" in out

    def test_check_update_rejects_violation(self, constraint_file, db_file, capsys):
        code = main(
            [
                "check",
                constraint_file,
                "--db",
                db_file,
                "--update",
                "+emp(bob, toys, 500)",
                "--local",
                "emp",
            ]
        )
        assert code == 1
        assert "violated" in capsys.readouterr().out

    def test_local_test_yes_and_unknown(self, tmp_path, capsys):
        constraints = tmp_path / "floor.dl"
        constraints.write_text("%% floor\npanic :- emp(E,D,S) & salFloor(D,F) & S < F\n")
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"emp": [["ann", "toys", 50]]}))
        code = main(
            [
                "local-test",
                str(constraints),
                "--db",
                str(db),
                "--local",
                "emp",
                "--update",
                "+emp(bob, toys, 60)",
            ]
        )
        assert code == 0
        assert "YES" in capsys.readouterr().out
        code = main(
            [
                "local-test",
                str(constraints),
                "--db",
                str(db),
                "--local",
                "emp",
                "--update",
                "+emp(bob, toys, 40)",
                "--witness",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "salFloor" in out  # the witness remote state

    def test_subsume(self, constraint_file, capsys):
        assert main(["subsume", constraint_file, "--target", "salary-cap-high"]) == 0
        assert "subsumed" in capsys.readouterr().out
        assert main(["subsume", constraint_file, "--target", "salary-cap"]) == 1

    def test_check_stream(self, constraint_file, db_file, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "# two safe updates, then a violation\n"
            "+emp(bob, toys, 60)\n"
            "~emp(ann, toys, 50)->(ann, toys, 55)\n"
            "+emp(cal, toys, 500)\n"
        )
        code = main(
            [
                "check-stream",
                constraint_file,
                "--db",
                db_file,
                "--updates",
                str(stream),
                "--local",
                "emp",
                "--verbose",
            ]
        )
        assert code == 1  # the last update is rejected
        out = capsys.readouterr().out
        assert out.count("applied") == 2
        assert out.count("REJECTED") == 1
        assert "updates" in out and "remote round trips" in out

    def test_check_stream_all_safe(self, constraint_file, db_file, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text("+emp(bob, toys, 60)\n")
        code = main(
            [
                "check-stream",
                constraint_file,
                "--db",
                db_file,
                "--updates",
                str(stream),
                "--local",
                "emp",
            ]
        )
        assert code == 0
        assert "applied" in capsys.readouterr().out

    def test_check_stream_quoted_commas(self, tmp_path, capsys):
        constraints = tmp_path / "uniq.dl"
        constraints.write_text("%% uniq\npanic :- tag(X, A) & tag(X, B) & A < B\n")
        stream = tmp_path / "stream.txt"
        stream.write_text(
            '+tag("k1", "a,b")\n'
            '+tag("k2", "c,d")\n'
            '+tag("k1", "z,w")\n'  # second value for k1: rejected
        )
        code = main(
            [
                "check-stream",
                str(constraints),
                "--updates",
                str(stream),
                "--local",
                "tag",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("applied") == 2
        assert out.count("REJECTED") == 1

    def test_check_stream_transaction_rolls_back(self, tmp_path, capsys):
        constraints = tmp_path / "noq.dl"
        constraints.write_text("%% no-q\npanic :- q(X)\n")
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"p": [[1]], "q": []}))
        stream = tmp_path / "stream.txt"
        stream.write_text("+p(1)\n+q(5)\n")
        code = main(
            [
                "check-stream",
                str(constraints),
                "--db",
                str(db),
                "--updates",
                str(stream),
                "--local",
                "p",
                "q",
                "--transaction",
            ]
        )
        assert code == 1
        assert "ROLLED BACK" in capsys.readouterr().out

    def transaction_run(self, constraint_file, db_file, tmp_path, capsys, *extra):
        stream = tmp_path / "stream.txt"
        stream.write_text("+emp(carl, toys, 55)\n-emp(ann, toys, 50)\n")
        code = main(
            ["check-stream", constraint_file, "--db", db_file,
             "--updates", str(stream), "--local", "emp", "--transaction",
             "-v", *extra]
        )
        verdicts, _, table = capsys.readouterr().out.partition("\n\n")
        return code, verdicts, table

    def test_check_stream_transaction_counts_level1_lookups(
        self, constraint_file, db_file, tmp_path, capsys
    ):
        code, _, table = self.transaction_run(
            constraint_file, db_file, tmp_path, capsys
        )
        assert code == 0
        assert re.search(r"level-1 cache misses\s+[1-9]", table)

    def test_check_stream_transaction_with_overlap_remote_commits(
        self, constraint_file, db_file, tmp_path, capsys
    ):
        """A transaction needs settled verdicts, so its escalation (the
        remote ``dept`` check of the hire) goes through the blocking
        fetch even under --overlap-remote: a healthy remote commits."""
        code, verdicts, _ = self.transaction_run(
            constraint_file, db_file, tmp_path, capsys
        )
        assert code == 0
        assert "[remote access]" in verdicts
        assert verdicts.endswith("transaction: COMMITTED")
        overlapped = self.transaction_run(
            constraint_file, db_file, tmp_path, capsys, "--overlap-remote"
        )
        assert overlapped[:2] == (0, verdicts)

    def test_missing_file_is_reported(self, capsys):
        assert main(["classify", "/nonexistent/path.dl"]) == 3
        assert "error" in capsys.readouterr().err


class TestMalformedInputs:
    """A database the loader cannot take, or a stored relation of another
    arity than the local test's, ends in exit 3 with an ``error:`` line:
    exit 1 would read as a rejected update."""

    CAP = "%% cap\npanic :- meter(K, V) & capLimit(C) & V > C\n"
    BOX = "%% box\npanic :- meter(X, Y) & r(Z, W) & X <= Z & W <= Y\n"

    def run(self, tmp_path, capsys, constraints, db_text):
        (tmp_path / "c.dl").write_text(constraints)
        (tmp_path / "db.json").write_text(db_text)
        (tmp_path / "s.txt").write_text("+meter(3, 4)\n")
        code = main(
            ["check-stream", str(tmp_path / "c.dl"), "--db", str(tmp_path / "db.json"),
             "--updates", str(tmp_path / "s.txt"), "--local", "meter"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "db_text, message",
        [
            ('{"meter": [[1, 2]', "not a JSON database"),
            ('[["a"]]', "a JSON object"),
            ('{"meter": {"a": [1, 2]}}', "meter: the facts must be a list"),
            ('{"meter": [5]}', "meter fact 5 is not a list"),
            ('{"meter": [[2, null]], "capLimit": [[100]]}', "meter fact [2, null]"),
            ('{"meter": [[2, [1, 2]]]}', "meter fact [2, [1, 2]]"),
            ('{"meter": [[2, NaN]]}', "meter fact [2, NaN]"),
            ('{"meter": [[2, {"v": 1}]]}', 'meter fact [2, {"v": 1}]'),
        ],
    )
    def test_malformed_database(self, tmp_path, capsys, db_text, message):
        assert message in self.run(tmp_path, capsys, self.CAP, db_text)

    @pytest.mark.parametrize("constraints", [CAP, BOX])
    def test_relation_of_another_arity(self, tmp_path, capsys, constraints):
        err = self.run(
            tmp_path, capsys, constraints, '{"meter": [["a"]], "capLimit": [[100]]}'
        )
        assert "has arity 1, the local test expects 2" in err

    @pytest.mark.parametrize(
        "extra", [[], ["--shards", "2"], ["--shards", "2", "--parallel", "2"]]
    )
    def test_update_outside_local_predicates(self, tmp_path, capsys, extra):
        import pathlib

        data = pathlib.Path(__file__).resolve().parent.parent / "examples" / "data"
        (tmp_path / "s.txt").write_text('+emp("carl", "toys", 55)\n+dept("zz")\n')
        code = main(
            ["check-stream", str(data / "employee_constraints.dl"),
             "--db", str(data / "employee_db.json"),
             "--updates", str(tmp_path / "s.txt"), "--local", "emp", *extra]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "+dept('zz'" in captured.err and "local: emp" in captured.err
        # Refused before the first update runs: no verdict line at all.
        assert captured.out == ""

    def test_every_value_kind_loads(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"p": [["a", -1, 2.5, true, 1e400]]}')
        assert load_database(str(path)).facts("p") == {
            ("a", -1, 2.5, True, float("inf"))
        }


class TestSiteFaultRateParsing:
    """Regressions for ``--site-fault-rate SITE=P`` validation: duplicate
    site names used to silently last-write-win, and any float parsed —
    including probabilities outside [0, 1]."""

    def parse(self, specs):
        import argparse

        from repro.cli import _parse_site_fault_rates

        return _parse_site_fault_rates(
            argparse.Namespace(site_fault_rate=list(specs))
        )

    def test_valid_specs(self):
        rates = self.parse(["remote1=0.25", "remote2=1", "0.1"])
        assert rates == {"remote1": 0.25, "remote2": 1.0, "*": 0.1}

    def test_duplicate_site_rejected(self):
        with pytest.raises(ReproError, match="twice for site 'remote1'"):
            self.parse(["remote1=0.2", "remote1=0.9"])

    def test_duplicate_default_rejected(self):
        with pytest.raises(ReproError, match="twice for the default rate"):
            self.parse(["0.2", "0.3"])

    def test_out_of_range_probability_rejected(self):
        for bad in ("remote1=1.5", "remote1=-0.1", "remote1=nan", "2.0"):
            with pytest.raises(ReproError, match=r"must be in \[0, 1\]"):
                self.parse([bad])

    def test_malformed_spec_rejected(self):
        for bad in ("remote1=", "=0.5", "abc", "remote1=p"):
            with pytest.raises(ReproError, match="must look like SITE=P"):
                self.parse([bad])

    def test_unknown_site_rejected_end_to_end(self, tmp_path, capsys):
        constraints = tmp_path / "c.dl"
        constraints.write_text("%% guard\npanic :- p(X) & rem(X)\n")
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"p": [], "rem": []}))
        stream = tmp_path / "stream.txt"
        stream.write_text("+p(1)\n")
        code = main(
            [
                "check-stream",
                str(constraints),
                "--db",
                str(db),
                "--updates",
                str(stream),
                "--local",
                "p",
                "--site-fault-rate",
                "nosuch=0.5",
            ]
        )
        assert code == 3
        assert "unknown site" in capsys.readouterr().err


class TestExecutorAndRebalanceFlags:
    """``--executor process`` and ``--rebalance`` wiring: flag validation
    (out-of-range numeric flags included) surfaces as exit 3, and both
    modes run a sharded stream end to end."""

    def sharded_stream(self, tmp_path, keys):
        constraints = tmp_path / "uniq.dl"
        constraints.write_text(
            "%% uniq\npanic :- hot(K, A) & hot(K, B) & A < B\n"
        )
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "".join(f"+hot({key}, {index})\n" for index, key in enumerate(keys))
        )
        return str(constraints), str(stream)

    def test_process_executor_end_to_end(self, tmp_path, capsys):
        constraints, stream = self.sharded_stream(
            tmp_path, [1, 60, 2, 70, 1]  # duplicate key 1: rejected
        )
        code = main(
            [
                "check-stream",
                constraints,
                "--updates",
                stream,
                "--local",
                "hot",
                "--shards",
                "2",
                "--shard-by",
                "hot=50",
                "--executor",
                "process",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("applied") == 4
        assert out.count("REJECTED") == 1

    def test_rebalance_end_to_end(self, tmp_path, capsys):
        # Every key lands on shard 0; once the default policy has enough
        # observations the hot range splits and the cut moves.
        constraints = tmp_path / "cap.dl"
        constraints.write_text("%% cap\npanic :- hot(K, A) & A > 90\n")
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "".join(f"+hot({index % 40}, {index % 7})\n" for index in range(90))
        )
        code = main(
            [
                "check-stream",
                str(constraints),
                "--updates",
                str(stream),
                "--local",
                "hot",
                "--shards",
                "2",
                "--shard-by",
                "hot=50",
                "--rebalance",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("applied") == 90
        assert re.search(r"rebalances\s+[1-9]", out)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--executor", "process"], "needs --shards"),
            (
                ["--shards", "2", "--executor", "process", "--overlap-remote"],
                "thread executor",
            ),
            (["--shards", "2", "--rebalance"], "needs --shards and --shard-by"),
            (
                ["--shards", "2", "--shard-by", "hot=50", "--rebalance", "0"],
                ">= 1",
            ),
            (["--shards", "-2"], "shards must be >= 1"),
            (["--shards", "2", "--parallel", "-2"], "parallelism must be >= 1"),
            (["--retries", "0"], "max_attempts must be at least 1"),
            (["--fault-rate", "2"], "failure_rate must be in [0, 1]"),
            (["--remote-latency", "-1"], "latency and latency_jitter must be"),
            (["--remote-timeout", "-1"], "attempt_timeout must be non-negative"),
            (["--outage", "abc"], "outage window must look like START:LENGTH"),
            (["--shards", "0"], "shards must be >= 1"),
            (["--shards", "2", "--parallel", "0"], "parallelism must be >= 1"),
            (["--shard-by", "hot=5"], "--shard-by needs --shards"),
            (
                ["--shards", "2", "--executor", "process", "--transaction"],
                "--transaction needs the thread executor",
            ),
        ],
    )
    def test_invalid_combinations_exit_3(self, tmp_path, capsys, extra, message):
        constraints, stream = self.sharded_stream(tmp_path, [1])
        code = main(
            ["check-stream", constraints, "--updates", stream,
             "--local", "hot", *extra]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestDurabilityFlags:
    """``--journal`` / ``--resume`` / ``--crash-at`` validation and the
    journal's on-disk footprint."""

    def stream(self, tmp_path, constraint_file, db_file, *extra):
        updates = tmp_path / "updates.txt"
        updates.write_text("+emp(bob, toys, 60)\n-emp(ann, toys, 50)\n")
        return [
            "check-stream", constraint_file,
            "--db", db_file, "--updates", str(updates),
            "--local", "emp", "dept", "salFloor",
            *extra,
        ]

    def test_resume_needs_journal(self, tmp_path, constraint_file, db_file, capsys):
        code = main(self.stream(tmp_path, constraint_file, db_file, "--resume"))
        assert code == 3
        assert "--resume needs --journal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--transaction",),
            ("--snapshot-ttl", "5"),
        ],
    )
    def test_journal_rejects_unreplayable_modes(
        self, tmp_path, constraint_file, db_file, capsys, flags
    ):
        journal = str(tmp_path / "journal")
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file, "--journal", journal, *flags
            )
        )
        assert code == 3
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--shards", "2", "--parallel", "2"),
            ("--shards", "2", "--executor", "process"),
            ("--overlap-remote",),
        ],
    )
    def test_journal_accepts_parallel_and_process_modes(
        self, tmp_path, constraint_file, db_file, capsys, flags
    ):
        journal = tmp_path / "journal"
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file,
                "--journal", str(journal), *flags,
            )
        )
        assert code == 0
        assert "applied" in capsys.readouterr().out
        assert (journal / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sync-every", "0"),
            ("--checkpoint-every", "0"),
            ("--sync-every", "-3"),
        ],
    )
    def test_journal_cadences_must_be_positive(
        self, tmp_path, constraint_file, db_file, capsys, flags
    ):
        journal = str(tmp_path / "journal")
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file, "--journal", journal, *flags
            )
        )
        assert code == 3
        assert "must be at least 1" in capsys.readouterr().err

    def test_resume_without_a_journal_dir_is_a_clean_error(
        self, tmp_path, constraint_file, db_file, capsys
    ):
        missing = str(tmp_path / "never-created")
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file,
                "--journal", missing, "--resume",
            )
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"no journal found at {missing!r}" in err
        assert "did you mean a fresh --journal run?" in err

    def test_resume_at_empty_journal_dir_is_a_clean_error(
        self, tmp_path, constraint_file, db_file, capsys
    ):
        empty = tmp_path / "journal"
        empty.mkdir()
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file,
                "--journal", str(empty), "--resume",
            )
        )
        assert code == 3
        assert "no journal found at" in capsys.readouterr().err

    def test_bad_crash_point_is_a_clean_error(
        self, tmp_path, constraint_file, db_file, capsys
    ):
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file, "--crash-at", "teardown"
            )
        )
        assert code == 3
        assert "unknown crash point" in capsys.readouterr().err

    def test_journal_leaves_a_resumable_footprint(
        self, tmp_path, constraint_file, db_file, capsys
    ):
        journal = tmp_path / "journal"
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file, "--journal", str(journal)
            )
        )
        assert code == 0
        names = set(p.name for p in journal.iterdir())
        assert "journal.jsonl" in names
        assert "meta.json" in names
        assert any(name.startswith("checkpoint-") for name in names)

    def test_degradation_summary_echoes_fault_seed(
        self, tmp_path, constraint_file, db_file, capsys
    ):
        code = main(
            self.stream(
                tmp_path, constraint_file, db_file,
                "--fault-rate", "0.5", "--fault-seed", "42",
            )
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if "fault seed" in line]
        assert row and "42" in row[0]


class TestLargeFederatedStream:
    """Fresh hires against 1,000 employees: each containment test's
    implication search runs about one level per stored employee, which
    used to die with a raw RecursionError."""

    CONSTRAINTS = """\
%% no-closed-dept
panic :- emp(E, D, S) & closedDept(D)
%% salary-floor
panic :- emp(E, D, S) & salFloor(D, F) & S < F
%% no-blacklisted
panic :- emp(E, D, S) & blacklisted(E)
%% dept-budget
panic :- emp(E, D, S) & deptBudget(D, B) & S > B
"""

    def test_every_update_gets_a_verdict(self, tmp_path, capsys):
        depts = [f"d{i}" for i in range(3, 20)]
        floors = {d: 20 + 3 * i for i, d in enumerate(depts)}
        emps = [
            [f"e{i}", depts[i % len(depts)], floors[depts[i % len(depts)]] + i % 100]
            for i in range(1000)
        ]
        (tmp_path / "c.dl").write_text(self.CONSTRAINTS)
        (tmp_path / "db.json").write_text(
            json.dumps(
                {
                    "emp": emps,
                    "closedDept": [["d0"]],
                    "salFloor": [[d, f] for d, f in floors.items()],
                    "blacklisted": [["zz"]],
                    "deptBudget": [[d, f + 120] for d, f in floors.items()],
                }
            )
        )
        updates = [
            f"+emp(n0, {emps[7][1]}, {emps[7][2]})",  # copies a colleague
            f"+emp(n1, d5, {floors['d5']})",  # at the floor: escalates
            "+emp(n2, d0, 50)",  # closed department
        ]
        (tmp_path / "u.txt").write_text("\n".join(updates) + "\n")
        code = main(
            [
                "check-stream", str(tmp_path / "c.dl"),
                "--db", str(tmp_path / "db.json"),
                "--updates", str(tmp_path / "u.txt"),
                "--local", "emp", "--sites", "4",
            ]
        )
        assert code in (0, 1)
        verdicts = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("+emp(")
        ]
        assert [v.split(": ")[1] for v in verdicts] == [
            "applied", "applied", "REJECTED",
        ]
