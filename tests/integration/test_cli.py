"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestWordCommand:
    def test_safe_word_exit_zero(self, capsys):
        assert main(["word", "(r,1)1 (w,2)1 c1"]) == 0
        out = capsys.readouterr().out
        assert "strictly serializable: yes" in out
        assert "opaque:                yes" in out

    def test_unsafe_word_exit_one(self, capsys):
        code = main(["word", "(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "no" in out and "cycle:" in out

    def test_parse_error_exit_two(self, capsys):
        assert main(["word", "gibberish"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSafetyCommand:
    def test_single_tm(self, capsys):
        assert main(["safety", "seq", "-n", "2", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "seq" in out and "Y," in out

    def test_single_property(self, capsys):
        assert main(["safety", "2pl", "-k", "1", "--property", "op"]) == 0
        out = capsys.readouterr().out
        assert "Σdop" in out and "Σdss" not in out

    def test_violation_exit_code(self, capsys):
        code = main(["safety", "modtl2", "--manager", "polite"])
        assert code == 1
        assert "N," in capsys.readouterr().out

    def test_unknown_tm(self):
        with pytest.raises(SystemExit):
            main(["safety", "nosuchtm"])
        # options of the removed process-sharding layer are usage errors
        for removed in (
            ["--jobs", "2"], ["--no-shard-product"], ["--chunk-size", "4"]
        ):
            with pytest.raises(SystemExit) as exc:
                main(["safety", "2pl", "-k", "1", *removed])
            assert exc.value.code == 2, removed

    def test_unknown_manager(self):
        with pytest.raises(SystemExit):
            main(["safety", "seq", "--manager", "nosuch"])


class TestLivenessCommand:
    def test_dstm_aggressive(self, capsys):
        code = main(["liveness", "dstm", "--manager", "aggressive"])
        # obstruction free but not livelock free → violations exist
        assert code == 1
        out = capsys.readouterr().out
        assert "dstm+aggr" in out
        assert "Y," in out  # the OF cell

    def test_defaults_to_one_variable(self, capsys):
        assert main(["liveness", "seq"]) == 1
        assert "(2,1)" in capsys.readouterr().out


class TestSpecsCommand:
    def test_sizes(self, capsys):
        assert main(["specs", "-n", "2", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "Σss" in out and "Σop" in out

    def test_equivalence(self, capsys):
        code = main(["specs", "-n", "2", "-k", "1", "--check-equivalence"])
        assert code == 0
        assert "equivalent: True" in capsys.readouterr().out


class TestSimulateCommand:
    def test_table1_row(self, capsys):
        code = main(
            [
                "simulate",
                "2pl",
                "--schedule",
                "111112",
                "-P",
                "1:r1 w2 c",
                "-P",
                "2:w2 c",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run : (rl,1)1, (r,1)1, (wl,2)1, (w,2)1, c1, (wl,2)2" in out
        assert "word: (r,1)1, (w,2)1, c1" in out

    def test_bad_schedule_exit_two(self, capsys):
        code = main(
            ["simulate", "seq", "--schedule", "99", "-P", "1:c"]
        )
        assert code == 2


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_builds(self):
        parser = build_parser()
        assert parser.format_help()


class TestDenseKernelAndProfileFlags:
    def test_no_dense_kernel_identical_output(self, capsys):
        import re

        def norm(text):
            # normalize timings (and the padding/rules they stretch)
            # away; verdict cells and counterexample words must survive
            text = re.sub(r"\d+\.\d+s", "<t>", text)
            return re.sub(r"-+", "-", re.sub(r" +", " ", text))

        assert main(["safety", "dstm", "-k", "1", "--lazy-spec"]) == 0
        dense = capsys.readouterr().out
        assert main(
            ["safety", "dstm", "-k", "1", "--lazy-spec", "--no-dense-kernel"]
        ) == 0
        set_based = capsys.readouterr().out
        assert norm(dense) == norm(set_based)

    def test_profile_emits_json_phases_on_stderr(self, capsys):
        import json

        assert main(["safety", "2pl", "-k", "1", "--profile"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.strip()]
        assert len(lines) == 2  # one JSON record per property
        for line in lines:
            record = json.loads(line)
            assert record["tm"] == "2PL"
            assert set(record["phases"]) == {
                "engine_build_s",
                "row_discovery_s",
                "product_bfs_s",
                "trace_rerun_s",
            }
            assert all(v >= 0 for v in record["phases"].values())


class TestBatchCommand:
    @staticmethod
    def _write_spec(tmp_path, cells):
        import json

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "defaults": {
                        "timeout_s": 120, "retries": 1, "backoff_s": 0
                    },
                    "cells": cells,
                }
            )
        )
        return str(path)

    def test_all_pass_exit_zero_and_reports(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path, [{"tm": "seq", "property": "ss", "n": 2, "k": 1}]
        )
        report_json = tmp_path / "report.json"
        report_md = tmp_path / "report.md"
        code = main(
            ["batch", spec, "--report-json", str(report_json),
             "--report-markdown", str(report_md)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| seq/ss/2x1 | pass |" in out
        import json

        report = json.loads(report_json.read_text())
        assert report["summary"]["pass"] == 1
        assert "| seq/ss/2x1 | pass |" in report_md.read_text()
        # the journal landed next to the spec
        assert (tmp_path / "campaign.jsonl").exists()

    def test_violation_exit_one(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path,
            [{"tm": "modtl2", "property": "op", "n": 2, "k": 2}],
        )
        assert main(["batch", spec, "--quiet"]) == 1
        assert capsys.readouterr().out == ""  # --quiet suppresses all

    def test_error_cell_exit_three_campaign_continues(
        self, tmp_path, capsys
    ):
        spec = self._write_spec(
            tmp_path,
            [
                {"tm": "tl2", "property": "ss", "n": 2, "k": 1,
                 "inject": {"fail_attempts": 5}},
                {"tm": "seq", "property": "ss", "n": 2, "k": 1},
            ],
        )
        code = main(["batch", spec])
        assert code == 3
        out = capsys.readouterr().out
        assert "| tl2/ss/2x1 | error |" in out
        assert "| seq/ss/2x1 | pass |" in out  # ran despite the error

    def test_interrupted_journal_resumes_byte_identical(
        self, tmp_path, capsys
    ):
        from repro.campaign import load_spec, run_campaign

        spec_path = self._write_spec(
            tmp_path,
            [
                {"tm": "seq", "property": "ss", "n": 2, "k": 1},
                {"tm": "2pl", "property": "ss", "n": 2, "k": 1,
                 "inject": {"sigkill_attempts": 1}},
            ],
        )
        journal = tmp_path / "campaign.jsonl"
        # simulate an interruption after the first cell
        run_campaign(load_spec(spec_path), str(journal), limit=1)
        first = tmp_path / "resumed.json"
        assert main(
            ["batch", spec_path, "--quiet", "--report-json", str(first)]
        ) == 0
        second = tmp_path / "fresh.json"
        assert main(
            ["batch", spec_path, "--quiet", "--no-resume",
             "--report-json", str(second)]
        ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_spec_exit_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "x", "bogus": 1}')
        assert main(["batch", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_digest_mismatch_exit_two(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path, [{"tm": "seq", "property": "ss", "n": 2, "k": 1}]
        )
        assert main(["batch", spec, "--quiet"]) == 0
        other = self._write_spec(
            tmp_path, [{"tm": "seq", "property": "op", "n": 2, "k": 1}]
        )
        assert main(["batch", other, "--quiet"]) == 2
        assert "digest mismatch" in capsys.readouterr().err


class TestDoctorCommand:
    def test_clean_then_anomalous_then_fixed(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["safety", "seq", "-k", "1", "--cache-dir", cache_dir]
        ) in (0, 1)
        capsys.readouterr()
        assert main(["doctor", cache_dir]) == 0
        assert "ok" in capsys.readouterr().out

        import os

        victim = next(
            os.path.join(cache_dir, n)
            for n in sorted(os.listdir(cache_dir))
            if n.endswith(".pkl")
        )
        with open(victim, "wb") as fh:
            fh.write(b"garbage")
        assert main(["doctor", cache_dir]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert main(["doctor", cache_dir, "--fix"]) == 0
        capsys.readouterr()
        assert main(["doctor", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        assert main(
            ["doctor", str(tmp_path / "absent"), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exists"] is False

    def test_missing_dir_exit_zero(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "nope")]) == 0


class TestJournalFaultExit:
    def test_journal_enospc_is_exit_three_with_diagnosis(
        self, tmp_path, capsys
    ):
        import json

        from repro.faultplane import installed

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "defaults": {"timeout_s": 120, "retries": 1,
                                 "backoff_s": 0},
                    "cells": [{"tm": "seq", "property": "ss",
                               "n": 2, "k": 1}],
                }
            )
        )
        schedule = {
            "name": "nospace", "seed": 0,
            "rules": [{"site": "journal.append", "fault": "enospc"}],
        }
        with installed(schedule):
            code = main(["batch", str(spec), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "journal append failed" in err
        assert "errno 28" in err  # ENOSPC, named in the one-liner
        assert "campaign.jsonl" in err  # and the journal path


class TestDoctorQuarantineCap:
    def test_max_quarantine_flag_threads_through(
        self, tmp_path, capsys
    ):
        import json
        import os

        for index in range(4):
            path = tmp_path / f"c{index}.pkl.bad"
            path.write_bytes(b"x")
            os.utime(path, (1_000_000 + index,) * 2)
        assert main(
            ["doctor", str(tmp_path), "--fix",
             "--max-quarantine", "1", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quarantine"]["rotated"] == [
            "c0.pkl.bad", "c1.pkl.bad", "c2.pkl.bad"
        ]

    def test_negative_cap_is_a_usage_error(self, tmp_path, capsys):
        assert main(
            ["doctor", str(tmp_path), "--max-quarantine", "-1"]
        ) == 2
        assert "max-quarantine" in capsys.readouterr().err
