"""Unit tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main, parse_geometry


class TestParseGeometry:
    def test_k_suffix(self):
        geometry = parse_geometry("64K:4:32")
        assert geometry.size_bytes == 64 * 1024
        assert geometry.associativity == 4
        assert geometry.block_bytes == 32

    def test_m_suffix(self):
        assert parse_geometry("1M:8:64").size_bytes == 1024 * 1024

    def test_plain_bytes(self):
        assert parse_geometry("512:2:32").size_bytes == 512

    def test_bad_shape(self):
        with pytest.raises(argparse.ArgumentTypeError, match="SIZE:WAYS:BLOCK"):
            parse_geometry("64K:4")

    def test_bad_values(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_geometry("63K:4:32")  # not a power of two


class TestSubcommands:
    def test_figures_lists_ids(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "fig9" in output
        assert "sec5.4" in output

    def test_kernels_lists(self, capsys):
        assert main(["kernels"]) == 0
        assert "matmul" in capsys.readouterr().out

    def test_benchmarks_lists(self, capsys):
        assert main(["benchmarks"]) == 0
        output = capsys.readouterr().out
        assert "bwaves" in output
        assert "lattice Boltzmann" in output

    def test_figure_sec54(self, capsys):
        assert main(["figure", "sec5.4"]) == 0
        assert "Tag-Buffer" in capsys.readouterr().out

    def test_figure_with_subset_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig5.csv"
        code = main(
            [
                "figure",
                "fig5",
                "--accesses",
                "2000",
                "--benchmarks",
                "bwaves",
                "mcf",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "bwaves" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "mcf",
                "--accesses",
                "3000",
                "--geometry",
                "4K:4:32",
                "--techniques",
                "rmw",
                "wg",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "array accesses" in output
        assert "wg" in output

    def test_trace_roundtrip_through_stats(self, capsys, tmp_path):
        trace_path = tmp_path / "t.trc"
        assert (
            main(
                [
                    "trace",
                    "gcc",
                    str(trace_path),
                    "--accesses",
                    "2000",
                    "--format",
                    "text",
                ]
            )
            == 0
        )
        assert main(["stats", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "silent writes" in output
        assert "WW share" in output

    def test_trace_binary(self, tmp_path):
        trace_path = tmp_path / "t.bin"
        assert (
            main(
                [
                    "trace",
                    "mcf",
                    str(trace_path),
                    "--accesses",
                    "1000",
                    "--format",
                    "binary",
                ]
            )
            == 0
        )
        assert main(["stats", str(trace_path)]) == 0

    def test_fit_on_generated_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "f.trc"
        assert (
            main(["trace", "wrf", str(trace_path), "--accesses", "3000"]) == 0
        )
        assert main(["fit", str(trace_path), "--name", "wrf-fit"]) == 0
        output = capsys.readouterr().out
        assert "silent fraction" in output
        assert "burst mean" in output

    def test_figure_bars(self, capsys):
        assert main(["figure", "sec5.4", "--bars"]) == 0
        assert "█" in capsys.readouterr().out

    def test_kernel_preview(self, capsys):
        assert main(["kernel", "histogram", "--words", "256"]) == 0
        output = capsys.readouterr().out
        assert "accesses total" in output

    def test_kernel_dump(self, tmp_path, capsys):
        out = tmp_path / "k.trc"
        assert main(["kernel", "stencil", str(out), "--words", "256"]) == 0
        assert out.exists()

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "repro-8t"


class TestObservabilityFlags:
    def test_compare_with_metrics_trace_and_snapshots(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        snapshots = tmp_path / "s.csv"
        code = main(
            [
                "compare",
                "bwaves",
                "--accesses",
                "3000",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
                "--snapshots-out",
                str(snapshots),
                "--sample-window",
                "1000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "wrote metrics" in output
        assert "interval snapshots" in output
        state = json.loads(metrics.read_text())
        assert state["counters"]["ctrl.rmw.rmw_issued"] > 0
        assert state["counters"]["span.simulate.wg.calls"] == 1
        lines = trace.read_text().splitlines()
        assert all(json.loads(line)["name"] for line in lines)
        assert snapshots.read_text().startswith("label,window_index")

    def test_compare_chrome_trace_output(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.json"
        code = main(
            ["compare", "mcf", "--accesses", "2000", "--trace-out", str(trace)]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        assert document["traceEvents"], "Chrome trace must not be empty"
        assert {"name", "ph", "ts", "pid", "tid"} <= set(
            document["traceEvents"][0]
        )

    def test_compare_without_flags_stays_dark(self, capsys):
        assert main(["compare", "bwaves", "--accesses", "2000"]) == 0
        assert "wrote metrics" not in capsys.readouterr().out

    def test_figure_with_metrics_out(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "m.json"
        code = main(
            [
                "figure",
                "fig5",
                "--accesses",
                "1500",
                "--benchmarks",
                "bwaves",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        state = json.loads(metrics.read_text())
        assert state["counters"]["span.figure.fig5.calls"] == 1

    def test_trace_crc_roundtrip_through_stats(self, capsys, tmp_path):
        trace_path = tmp_path / "t.bin"
        assert (
            main(
                [
                    "trace",
                    "mcf",
                    str(trace_path),
                    "--accesses",
                    "1000",
                    "--format",
                    "binary",
                    "--crc",
                ]
            )
            == 0
        )
        assert trace_path.read_bytes()[:8] == b"RPTRACE2"
        assert main(["stats", str(trace_path)]) == 0
        assert "silent writes" in capsys.readouterr().out

    def test_profile_prints_tables(self, capsys):
        code = main(
            ["profile", "bwaves", "--accesses", "3000", "--techniques", "rmw", "wg"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "phase timings" in output
        assert "measure.wg" in output
        assert "hot counters" in output
        assert "ctrl.rmw.rmw_issued" in output
        assert "total across techniques" in output


class TestErrorHandling:
    """ReproError failures must be one-line messages, not tracebacks."""

    def test_usage_error_exits_2(self, capsys, tmp_path):
        # --crc is meaningless for the text format: ConfigurationError.
        code = main(
            [
                "trace",
                "mcf",
                str(tmp_path / "t.trc"),
                "--accesses",
                "500",
                "--format",
                "text",
                "--crc",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-8t: error:")
        assert "Traceback" not in err

    def test_runtime_error_exits_3(self, capsys, tmp_path):
        trace_path = tmp_path / "bad.bin"
        trace_path.write_bytes(b"WRONGMAG" + b"\x00" * 25)
        code = main(["stats", str(trace_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad magic" in err
        assert "Traceback" not in err

    def test_corrupt_crc_trace_exits_3_naming_offset(self, capsys, tmp_path):
        from repro.faultinject import flip_bit

        trace_path = tmp_path / "t.bin"
        assert (
            main(
                [
                    "trace",
                    "mcf",
                    str(trace_path),
                    "--accesses",
                    "500",
                    "--format",
                    "binary",
                    "--crc",
                ]
            )
            == 0
        )
        flip_bit(trace_path, byte_offset=20, bit=1)
        assert main(["stats", str(trace_path)]) == 3
        assert "byte offset" in capsys.readouterr().err

    @staticmethod
    def _one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("repro-8t: error:")
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "flags, size", [([], 25), (["--crc"], 29)], ids=("RPTRACE1", "RPTRACE2")
    )
    def test_misaligned_binary_trace_exits_3_naming_record(
        self, capsys, tmp_path, flags, size
    ):
        import struct
        import zlib

        trace_path = tmp_path / "t.bin"
        assert (
            main(
                ["trace", "mcf", str(trace_path), "--accesses", "5"]
                + ["--format", "binary"]
                + flags
            )
            == 0
        )
        data = bytearray(trace_path.read_bytes())
        body = struct.pack("<QBQQ", 9, 0, 0xD, 0)
        if flags:
            body += struct.pack("<I", zlib.crc32(body))
        data[8 + 3 * size : 8 + 4 * size] = body
        trace_path.write_bytes(bytes(data))
        assert main(["stats", str(trace_path)]) == 3
        err = self._one_line_error(capsys)
        assert f"record #3 at byte offset {8 + 3 * size}" in err
        assert "8-byte aligned, got 0xd" in err

    def test_binary_trace_read_as_text_exits_3(self, capsys, tmp_path):
        # Any name but *.bin / *.rpt goes to the text reader.
        trace_path = tmp_path / "t.dat"
        assert (
            main(
                ["trace", "mcf", str(trace_path), "--accesses", "100"]
                + ["--format", "binary"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", str(trace_path)]) == 3
        assert "line 1" in self._one_line_error(capsys)

    def test_truncated_binary_trace_exits_3_naming_record(self, capsys, tmp_path):
        from repro.faultinject import truncate_file

        trace_path = tmp_path / "t.bin"
        argv = ["trace", "mcf", str(trace_path), "--accesses", "5"]
        assert main(argv + ["--format", "binary"]) == 0
        truncate_file(trace_path, keep_bytes=8 + 3 * 25 + 4)
        capsys.readouterr()
        assert main(["stats", str(trace_path)]) == 3
        err = self._one_line_error(capsys)
        assert "truncated record #3 at byte offset 83 (4 of 25 bytes)" in err

    def test_fit_on_corrupt_crc_trace_exits_3_naming_record(
        self, capsys, tmp_path
    ):
        from repro.faultinject import flip_bit

        trace_path = tmp_path / "t.rpt"
        argv = ["trace", "mcf", str(trace_path), "--accesses", "50"]
        assert main(argv + ["--format", "binary", "--crc"]) == 0
        flip_bit(trace_path, byte_offset=8 + 7 * 29 + 3, bit=2)
        capsys.readouterr()
        assert main(["fit", str(trace_path)]) == 3
        err = self._one_line_error(capsys)
        assert "CRC mismatch in record #7 at byte offset 211" in err

    def test_text_field_beyond_64_bits_exits_3(self, capsys, tmp_path):
        trace_path = tmp_path / "t.trc"
        trace_path.write_text(f"0 R 0x8\n1 W 0x10 {2**64:#x}\n")
        assert main(["stats", str(trace_path)]) == 3
        err = self._one_line_error(capsys)
        assert "line 2: value" in err and "does not fit in 64" in err

    def test_debug_restores_traceback(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                [
                    "--debug",
                    "trace",
                    "mcf",
                    str(tmp_path / "t.trc"),
                    "--format",
                    "text",
                    "--crc",
                ]
            )


class TestTraceFileFormats:
    """One generated trace, written as text, RPTRACE1 and RPTRACE2."""

    # Equal-length names, so the tables' titles differ only in the path.
    FILES = {
        "t.txt": ["--format", "text"],
        "t.bin": ["--format", "binary"],
        "t.rpt": ["--format", "binary", "--crc"],
    }

    def test_stats_and_fit_print_the_same_tables(self, capsys, tmp_path):
        import re

        from repro.cache.address import AddressMapper
        from repro.cache.config import BASELINE_GEOMETRY
        from repro.trace.stats import collect_statistics
        from repro.workload.generator import generate_trace
        from repro.workload.spec2006 import get_profile

        outputs = []
        for name, flags in self.FILES.items():
            path = tmp_path / name
            argv = ["trace", "gcc", str(path), "--accesses", "3000", "--seed", "5"]
            assert main(argv + flags) == 0
            capsys.readouterr()
            assert main(["stats", str(path)]) == 0
            assert main(["fit", str(path)]) == 0
            outputs.append(capsys.readouterr().out.replace(str(path), "<trace>"))
        assert outputs[0] == outputs[1] == outputs[2]

        stats = collect_statistics(
            generate_trace(get_profile("gcc"), 3000, seed=5),
            AddressMapper(BASELINE_GEOMETRY).set_index,
        )
        scenarios = stats.scenarios
        expected = [
            ("accesses", stats.accesses),
            ("instructions", stats.instructions),
            ("read frequency", f"{100 * stats.read_frequency:.2f}%"),
            ("write frequency", f"{100 * stats.write_frequency:.2f}%"),
            ("silent writes", f"{100 * stats.silent_write_fraction:.2f}%"),
            ("same-set pairs", f"{100 * scenarios.same_set_share:.2f}%"),
        ] + [
            (f"{pair} share", f"{100 * scenarios.share(pair):.2f}%")
            for pair in ("RR", "RW", "WW", "WR")
        ]
        for label, value in expected:
            row = rf"^{label} +{re.escape(str(value))}$"
            assert re.search(row, outputs[0], re.MULTILINE), label


class TestResilienceFlags:
    def test_figure_with_retries_and_result_cache_dir(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        argv = [
            "figure",
            "fig9",  # campaign-backed, so the store receives rows
            "--accesses",
            "1500",
            "--benchmarks",
            "bwaves",
            "--retries",
            "2",
            "--result-cache",
            str(store_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list((store_dir / "objects").rglob("*.json"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "flags",
        (
            ["--processes", "0"],
            ["--processes", "-3"],
            ["--result-cache", "{store}", "--result-cache-max-bytes", "0"],
        ),
        ids=("processes-0", "processes-negative", "max-bytes-0"),
    )
    def test_values_no_campaign_can_use_exit_2(self, flags, capsys, tmp_path):
        store_dir = tmp_path / "store"
        argv = ["figure", "claim_rmw", "--accesses", "200", "--benchmarks", "bwaves"]
        argv += [flag.format(store=store_dir) for flag in flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-8t: error:")
        assert "must be positive" in captured.err
        assert captured.err.count("\n") == 1
        assert not store_dir.exists()

    def test_figure_with_processes_matches_sequential(self, capsys):
        argv = [
            "figure",
            "fig9",
            "--accesses",
            "1500",
            "--benchmarks",
            "bwaves",
            "mcf",
        ]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--processes", "2", "--worker-timeout", "60"]) == 0
        assert capsys.readouterr().out == sequential


class TestCheckSubcommand:
    def test_clean_campaign_exits_zero(self, capsys):
        argv = [
            "check",
            "--seed",
            "0",
            "--iterations",
            "4",
            "--accesses",
            "80",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "OK" in output
        assert "4 technique(s)" in output

    def test_technique_subset(self, capsys):
        argv = [
            "check",
            "--iterations",
            "3",
            "--accesses",
            "60",
            "--techniques",
            "wg",
        ]
        assert main(argv) == 0
        assert "1 technique(s)" in capsys.readouterr().out

    def test_geometry_restriction(self, capsys):
        argv = [
            "check",
            "--iterations",
            "2",
            "--accesses",
            "60",
            "--geometry",
            "512:2:32",
        ]
        assert main(argv) == 0
        assert "OK" in capsys.readouterr().out

    def test_divergence_exits_three_and_saves_corpus(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.engine import columnar

        original = columnar._process_chunk_wg

        def buggy(controller, chunk, codes):
            original(controller, chunk, codes)
            controller.counts.grouped_writes += 1

        monkeypatch.setattr(columnar, "_process_chunk_wg", buggy)
        corpus = tmp_path / "corpus"
        argv = [
            "check",
            "--iterations",
            "1",
            "--accesses",
            "120",
            "--techniques",
            "wg",
            "--corpus",
            str(corpus),
        ]
        assert main(argv) == 3
        output = capsys.readouterr().out
        assert "FAILURE" in output
        assert "grouped_writes" in output
        assert list(corpus.glob("*.json"))

    def test_replay_mode(self, capsys, tmp_path, monkeypatch):
        from repro.engine import columnar

        original = columnar._process_chunk_wg

        def buggy(controller, chunk, codes):
            original(controller, chunk, codes)
            controller.counts.grouped_writes += 1

        corpus = tmp_path / "corpus"
        with monkeypatch.context() as patch:
            patch.setattr(columnar, "_process_chunk_wg", buggy)
            main(
                [
                    "check",
                    "--iterations",
                    "1",
                    "--accesses",
                    "120",
                    "--techniques",
                    "wg",
                    "--corpus",
                    str(corpus),
                ]
            )
        capsys.readouterr()
        # Bug gone: the saved repro must replay green.
        assert main(["check", "--corpus", str(corpus), "--replay"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_replay_without_corpus_is_usage_error(self, capsys):
        assert main(["check", "--replay"]) == 2
        assert "needs --corpus" in capsys.readouterr().err


class TestPerfObservatory:
    # Best of three runs per bench leg: one run can land in a slow
    # phase of a shared or throttled host.
    BENCH = [
        "--accesses", "1500", "--repeats", "3",
        "--techniques", "conventional", "wg",
    ]

    def test_bench_history_appends_valid_jsonl(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert main(["bench", *self.BENCH, "--history", str(ledger)]) == 0
        capsys.readouterr()
        lines = ledger.read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["schema"] == 2
        assert record["benchmark"] == "bwaves"
        assert {"commit", "python", "hostname", "cpu_count"} <= set(
            record["env"]
        )
        assert {r["technique"] for r in record["results"]} == {
            "conventional", "wg",
        }

    def test_bench_json_snapshot_carries_environment(self, capsys, tmp_path):
        import json

        out = tmp_path / "snap.json"
        assert main(["bench", *self.BENCH, "--json", str(out)]) == 0
        capsys.readouterr()
        snapshot = json.loads(out.read_text())
        assert "environment" in snapshot
        assert "timestamp_utc" in snapshot
        assert snapshot["environment"]["python_impl"]

    def test_perf_compare_passes_on_healthy_tree(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert main(["bench", *self.BENCH, "--history", str(ledger)]) == 0
        # A wide noise band: this asserts the wiring (measure -> gate ->
        # append), not the statistics — tiny traces on a shared box are
        # noisy, and the band math has its own deterministic tests.
        assert (
            main(
                [
                    "perf", "compare", "--ledger", str(ledger),
                    *self.BENCH, "--append",
                    "--sigma", "6", "--min-band", "0.45",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "perf gate passed" in output
        # --append grew the ledger to three runs.
        assert len(ledger.read_text().strip().splitlines()) == 3

    def test_perf_compare_fails_on_injected_regression(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        snap = tmp_path / "snap.json"
        for _ in range(2):
            assert (
                main(
                    [
                        "bench", *self.BENCH,
                        "--history", str(ledger), "--json", str(snap),
                    ]
                )
                == 0
            )
        # Inject a synthetic regression: columnar as slow as scalar.
        snapshot = json.loads(snap.read_text())
        for result in snapshot["results"]:
            result["columnar_seconds"] = result["scalar_seconds"]
            result["speedup"] = 1.0
        snap.write_text(json.dumps(snapshot))
        report = tmp_path / "gate.json"
        code = main(
            [
                "perf", "compare", "--ledger", str(ledger),
                "--current", str(snap), "--report", str(report),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "REGRESSION" in captured.err
        verdict = json.loads(report.read_text())
        assert verdict["ok"] is False

    def test_perf_report_renders_markdown(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["bench", *self.BENCH, "--history", str(ledger)]) == 0
        out = tmp_path / "trend.md"
        assert (
            main(["perf", "report", "--ledger", str(ledger), "--out", str(out)])
            == 0
        )
        capsys.readouterr()
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# Hot-path performance trend")
        assert "| conventional |" in text

    def test_perf_report_on_missing_ledger(self, capsys, tmp_path):
        out = tmp_path / "trend.md"
        assert (
            main(
                [
                    "perf", "report",
                    "--ledger", str(tmp_path / "none.jsonl"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert "ledger is empty" in out.read_text(encoding="utf-8")


class TestPowerSubcommand:
    FAST = ["--accesses", "2000", "--benchmarks", "bwaves", "mcf"]

    def test_claims_verified_exit_zero(self, capsys):
        assert main(["power", *self.FAST]) == 0
        output = capsys.readouterr().out
        assert "Set-Buffer %" in output
        assert "all overhead claims verified" in output
        assert "backend calls" in output

    def test_forced_library_backend(self, capsys):
        assert main(["power", "--estimator", "library", *self.FAST]) == 0
        output = capsys.readouterr().out
        assert "library" in output
        assert "analytical=0" in output  # forced: analytical never called
        assert "\nanalytical" not in output  # and it gets no table row

    def test_json_document_and_warm_cache(self, capsys, tmp_path):
        import json

        report = tmp_path / "overheads.json"
        cache = tmp_path / "cache"
        argv = [
            "power",
            "--estimator-cache", str(cache),
            "--json", str(report),
            *self.FAST,
        ]
        assert main(argv) == 0
        document = json.loads(report.read_text(encoding="utf-8"))
        assert document["violations"] == []
        assert document["summary"]["set_buffer_overhead_pct"] < 0.2
        assert document["summary"]["tag_buffer_bits"] < 150.0
        assert document["estimator"]["cache"]["hits"] == 0

        assert main(argv) == 0
        capsys.readouterr()
        warm = json.loads(report.read_text(encoding="utf-8"))
        calls = warm["estimator"]["backend_calls"]
        assert calls == {"analytical": 0, "library": 0}
        assert warm["estimator"]["cache"]["misses"] == 0
        assert warm["rows"] == document["rows"]

    def test_unknown_estimator_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["power", "--estimator", "spice"])

    def test_estimator_flags_on_figure(self, capsys):
        assert main(["figure", "sec5.4", "--estimator", "analytical"]) == 0
        assert "Tag-Buffer" in capsys.readouterr().out

    def test_figure_writes_its_records_with_one_append(
        self, capsys, tmp_path, monkeypatch
    ):
        import os

        appends = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: appends.append(fd) or fsync(fd))
        cache = tmp_path / "estimates"
        argv = [
            "figure", "dvfs_energy", "--estimator-cache", str(cache),
            "--accesses", "300", "--benchmarks", "bwaves", "mcf",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(appends) == 1
        assert len((cache / "estimations.jsonl").read_text().splitlines()) > 1

    def test_power_writes_its_records_with_one_fsync(
        self, capsys, tmp_path, monkeypatch
    ):
        import os

        synced = []
        fsync = os.fsync

        def counting(fd):
            synced.append(os.fstat(fd).st_ino)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        cache = tmp_path / "estimates"
        argv = [
            "power", "--estimator-cache", str(cache),
            "--accesses", "300", "--benchmarks", "bwaves", "mcf",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        records = cache / "estimations.jsonl"
        assert len(records.read_text().splitlines()) > 1
        assert synced.count(records.stat().st_ino) == 1
