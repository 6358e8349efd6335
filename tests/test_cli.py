"""Tests for the repro-detect command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lanl_defaults(self):
        args = build_parser().parse_args(["lanl"])
        assert args.seed == 42

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTimingCommand:
    def test_beacon_detected(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(600.0 * i) for i in range(8)))
        code = main(["timing", str(series)])
        out = capsys.readouterr().out
        assert code == 0
        assert "automated:    YES" in out
        assert "period:       600.0 s" in out

    def test_browsing_not_detected(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("\n".join(str(t) for t in (0, 55, 300, 1234, 1500, 4000)))
        code = main(["timing", str(series)])
        assert code == 1
        assert "automated:    no" in capsys.readouterr().out

    def test_bad_input(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("not-a-number\n")
        assert main(["timing", str(series)]) == 2

    def test_custom_threshold(self, tmp_path):
        series = tmp_path / "series.txt"
        values, t = [], 0.0
        for i in range(10):
            values.append(t)
            t += 600.0 + (40.0 if i % 2 else -40.0)
        series.write_text("\n".join(map(str, values)))
        strict = main(["timing", str(series), "--threshold", "0.0"])
        loose = main(["timing", str(series), "--threshold", "1.0",
                      "--bin-width", "100"])
        assert strict == 1
        assert loose == 0


class TestGenerateCommand:
    def test_writes_logs_and_truth(self, tmp_path, capsys):
        out_dir = tmp_path / "logs"
        code = main([
            "generate", str(out_dir), "--hosts", "40", "--days", "2",
            "--netflow",
        ])
        assert code == 0
        assert (out_dir / "dns-march-01.log").exists()
        assert (out_dir / "dns-march-02.log").exists()
        assert (out_dir / "netflow-march-01.log").exists()
        assert (out_dir / "ground_truth.txt").exists()

    def test_generated_logs_parse_back(self, tmp_path):
        from repro.logs import parse_dns_log

        out_dir = tmp_path / "logs"
        main(["generate", str(out_dir), "--hosts", "30", "--days", "1"])
        with (out_dir / "dns-march-01.log").open() as handle:
            records = list(parse_dns_log(handle))
        assert len(records) > 100


class TestLanlCommand:
    def test_prints_table_and_rates(self, capsys):
        code = main(["lanl", "--hosts", "50", "--bootstrap-days", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LANL challenge results" in out
        assert "TDR=" in out


class TestEnterpriseStreamCommand:
    @pytest.fixture(scope="class")
    def layout(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("entcli") / "ent"
        assert main([
            "generate", str(out), "--pipeline", "enterprise",
            "--hosts", "30", "--days", "3", "--seed", "7",
        ]) == 0
        return out

    def test_generate_writes_enterprise_layout(self, layout):
        assert (layout / "proxy-march-01.log").exists()
        assert (layout / "proxy-march-03.log").exists()
        assert (layout / "model.json").exists()
        assert (layout / "whois.json").exists()
        assert (layout / "ground_truth.txt").exists()

    def test_stream_enterprise_runs(self, layout, capsys):
        code = main([
            "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"),
            "--bootstrap-files", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("records,") == 3

    def test_stream_enterprise_interrupt_resume(self, layout, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        base = [
            "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"),
            "--bootstrap-files", "0", "--batch-size", "300",
            "--checkpoint", str(ckpt),
        ]
        assert main(base + ["--max-batches", "4"]) == 3
        assert "interrupted after 4 micro-batches" in capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        assert "records," in capsys.readouterr().out

    def test_enterprise_requires_model_state(self, tmp_path, capsys):
        assert main([
            "stream", str(tmp_path), "--pipeline", "enterprise",
        ]) == 2
        assert "--model-state" in capsys.readouterr().err

    def test_dns_rejects_enterprise_flags(self, tmp_path, capsys):
        assert main([
            "stream", str(tmp_path), "--model-state", "m.json",
        ]) == 2
        assert "only valid" in capsys.readouterr().err
        assert main([
            "stream", str(tmp_path), "--whois", "w.json",
        ]) == 2
        assert "only valid" in capsys.readouterr().err

    def test_enterprise_rejects_internal_suffix(self, tmp_path, capsys):
        assert main([
            "stream", str(tmp_path), "--pipeline", "enterprise",
            "--model-state", "m.json", "--internal-suffix", "int.c0",
        ]) == 2
        assert "reduction funnel" in capsys.readouterr().err

    def test_generate_rejects_bad_combos(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert main([
            "generate", out, "--pipeline", "enterprise", "--tenants", "2",
        ]) == 2
        assert "--enterprise-tenants" in capsys.readouterr().err
        assert main([
            "generate", out, "--tenants", "2", "--enterprise-tenants", "2",
        ]) == 2
        assert "lead tenant" in capsys.readouterr().err
        assert main([
            "generate", out, "--pipeline", "enterprise", "--netflow",
        ]) == 2
        assert "netflow" in capsys.readouterr().err
        assert main([
            "generate", out, "--enterprise-tenants", "1",
        ]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_generate_mixed_fleet_manifest(self, tmp_path):
        import json

        out = tmp_path / "fleet"
        assert main([
            "generate", str(out), "--tenants", "3",
            "--enterprise-tenants", "1", "--hosts", "40",
            "--days", "3", "--seed", "11",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        pipelines = [t.get("pipeline", "dns") for t in manifest["tenants"]]
        assert pipelines == ["dns", "dns", "enterprise"]
        assert manifest["whois"] == "intel/whois.json"
        assert (out / "t2" / "model.json").exists()


class TestFleetExecutorFlag:
    @pytest.mark.parametrize("removed, replacement", [
        ("thread", "--executor serial"),
        ("process", "--executor resident"),
    ])
    def test_removed_executor_exits_2_naming_replacement(
        self, tmp_path, capsys, removed, replacement
    ):
        code = main([
            "fleet", str(tmp_path / "manifest.json"), "--executor", removed,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: --executor {removed} was removed")
        assert replacement in err


class TestNonFiniteTimestamps:
    def test_nan_line_is_dropped_not_fatal(self, tmp_path, capsys):
        # One appended `nan` line used to abort the whole run in the
        # reduction funnel; it must cost only that line.
        world = tmp_path / "w7"
        main(["generate", str(world), "--seed", "7", "--hosts", "40",
              "--days", "4"])
        capsys.readouterr()
        assert main(["run", str(world)]) == 0
        clean = capsys.readouterr().out
        last = sorted(world.glob("dns-*.log"))[-1]
        with last.open("a") as handle:
            handle.write("nan 10.0.234.97 A ronusu.n1 -\n")
        assert main(["run", str(world)]) == 0
        assert capsys.readouterr().out == clean
