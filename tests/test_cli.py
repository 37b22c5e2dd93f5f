import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from tentlab.cli import run

GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = Path(__file__).parents[1] / "src" / "tentlab" / "schemas"


def tentlab(*argv, check=True):
    cp = subprocess.run(
        [sys.executable, "-m", "tentlab", *argv], capture_output=True, text=True
    )
    if check and cp.returncode not in (0, 1):
        raise AssertionError(f"{argv}: rc={cp.returncode} stderr={cp.stderr}")
    return cp


def validate(doc, schema_name):
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(doc, schema)


class TestGolden:
    def test_preimages(self):
        cp = tentlab("preimages", "--n", "3", "--kind", "A")
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "preimages_n3_A.json").read_text()

    def test_commutants_audit(self):
        cp = tentlab("commutants", "audit", "--n", "2")
        assert cp.returncode == 1  # the count disagreement is reported data
        assert cp.stdout == (GOLDEN / "commutants_audit_n2.json").read_text()

    def test_conjugacy_length(self):
        cp = tentlab("conjugacy", "length", "--v", "1/4", "--n", "8", "--mode", "aggregate")
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "conjugacy_length_v14_n8.json").read_text()

    def test_conjugacy_length_explicit(self):
        cp = tentlab("conjugacy", "length", "--v", "1/3", "--n", "16", "--mode", "explicit")
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "conjugacy_length_v13_n16_explicit.json").read_text()

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("conjugacy_table_v13_n5.json", ["table", "--v", "1/3", "--n", "5"]),
            (
                "conjugacy_slopes_v710_n14_explicit.json",
                ["slopes", "--v", "7/10", "--n", "14", "--threshold", "1", "--mode", "explicit"],
            ),
            (
                "conjugacy_slopes_v710_n10000_aggregate.json",
                ["slopes", "--v", "7/10", "--n", "10000", "--threshold", "1", "--mode", "aggregate"],
            ),
            ("conjugacy_density_v13_d12.json", ["density", "--v", "1/3", "--depth", "12"]),
        ],
    )
    def test_conjugacy_lattice(self, golden, argv):
        cp = tentlab("conjugacy", *argv)
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / golden).read_text()

    def test_audit(self):
        cp = tentlab("audit", "--max-n", "3", "--seed", "0")
        assert cp.returncode == 1  # refuted counting claims are reported data
        assert cp.stdout == (GOLDEN / "audit_max_n3_seed0.json").read_text()

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("commutants_enumerate_n4_x00.json", ["commutants", "enumerate", "--n", "4", "--x0", "0"]),
            ("continuable_n5.json", ["continuable", "--n", "5"]),
            (
                "preimages_n5_B_iterated.json",
                ["preimages", "--n", "5", "--kind", "B", "--method", "iterated"],
            ),
        ],
    )
    def test_lattice_layers(self, golden, argv):
        cp = tentlab(*argv)
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("continuable_n3_a34_b14.json", ["--n", "3", "--alpha", "3/4", "--beta", "1/4"]),
            ("continuable_n5_a316_b516.json", ["--n", "5", "--alpha", "3/16", "--beta", "5/16"]),
            # the constant-0 table answers first: witness_constant, no witness_k
            ("continuable_n8_a1128_b0.json", ["--n", "8", "--alpha", "1/128", "--beta", "0"]),
        ],
    )
    def test_continuable_witnesses(self, golden, argv):
        cp = tentlab("continuable", *argv)
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / golden).read_text()

    def test_commutants_enumerate_both_bases(self):
        # n = 3 takes the product filter
        cp = tentlab("commutants", "enumerate", "--n", "3")
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "commutants_enumerate_n3.json").read_text()

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("probe_k3_s10_d20.json", ["--k", "3", "--start", "1,0", "--depth", "20"]),
            ("probe_k7_s11_d20.json", ["--k", "7", "--start", "1,1", "--depth", "20"]),
            ("probe_k5_s10_d2.json", ["--k", "5", "--start", "1,0", "--depth", "2"]),
        ],
    )
    def test_probe(self, golden, argv):
        cp = tentlab("probe", *argv)
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / golden).read_text()

    def test_byte_identical_across_runs(self):
        first = tentlab("preimages", "--n", "4", "--kind", "F").stdout
        second = tentlab("preimages", "--n", "4", "--kind", "F").stdout
        assert first == second

    def test_byte_identical_across_workers(self):
        solo = tentlab("commutants", "audit", "--n", "2", "--workers", "1").stdout
        duo = tentlab("commutants", "audit", "--n", "2", "--workers", "2").stdout
        assert solo == duo
        solo = tentlab("commutants", "enumerate", "--n", "3", "--workers", "1").stdout
        duo = tentlab("commutants", "enumerate", "--n", "3", "--workers", "2").stdout
        assert solo == duo


class TestDocumentsValidate:
    def test_preimages(self):
        doc = json.loads(tentlab("preimages", "--n", "2", "--kind", "B").stdout)
        validate(doc, "preimage_set")
        doc = json.loads(tentlab("preimages", "--n", "2", "--kind", "F").stdout)
        validate(doc, "preimage_set")
        assert len(doc["points"]) == 7

    def test_probe(self):
        doc = json.loads(
            tentlab("probe", "--k", "3", "--start", "1,0", "--depth", "10").stdout
        )
        validate(doc, "probe")
        assert doc["outcome"] == "linear"

    def test_commutants_enumerate(self):
        doc = json.loads(tentlab("commutants", "enumerate", "--n", "2").stdout)
        validate(doc, "commutants_enumerate")
        assert doc["count"] == 7
        for table in doc["tables"]:
            validate(table, "commuting_table")

    def test_commutants_audit(self):
        doc = json.loads(tentlab("commutants", "audit", "--n", "1").stdout)
        validate(doc, "commutants_audit")
        assert doc["agree"]

    def test_continuable_point(self):
        doc = json.loads(
            tentlab(
                "continuable", "--n", "2", "--alpha", "1/2", "--beta", "1/2"
            ).stdout
        )
        validate(doc, "continuable_point")
        assert doc["k0"] == 1 and doc["classes"] == [1, 3]
        assert doc["table"]["values"]["1/2"] == "1/2"

    def test_continuable_enumerate(self):
        doc = json.loads(tentlab("continuable", "--n", "3").stdout)
        validate(doc, "continuable_enumerate")
        assert doc["count"] == 6

    def test_continuable_audit(self):
        cp = tentlab("continuable", "audit", "--n", "4")
        doc = json.loads(cp.stdout)
        validate(doc, "continuable_audit")
        assert cp.returncode == 1
        assert doc["claimed"] == 8 and doc["distinct_restrictions"] == 10

    def test_conjugacy_table(self):
        doc = json.loads(
            tentlab("conjugacy", "table", "--v", "1/4", "--n", "2").stdout
        )
        validate(doc, "conjugacy_table")
        assert doc["breakpoints"][1] == ["1/4", "1/16"]

    def test_conjugacy_length(self):
        doc = json.loads(
            tentlab("conjugacy", "length", "--v", "1/3", "--n", "5", "--mode", "explicit").stdout
        )
        validate(doc, "conjugacy_length")

    def test_conjugacy_slopes(self):
        doc = json.loads(
            tentlab(
                "conjugacy", "slopes", "--v", "1/4", "--n", "2", "--threshold", "1/1"
            ).stdout
        )
        validate(doc, "conjugacy_slopes")
        assert doc["measure"] == "1/4"

    def test_conjugacy_density(self):
        doc = json.loads(
            tentlab("conjugacy", "density", "--v", "1/2", "--depth", "3").stdout
        )
        validate(doc, "conjugacy_density")
        assert doc["max_gap"] == "1/8"

    def test_audit_document(self):
        cp = tentlab("audit", "--max-n", "2")
        doc = json.loads(cp.stdout)
        validate(doc, "claims_audit")
        assert cp.returncode == 1  # refuted counting claims are expected
        by_id = {c["id"]: c for c in doc["claims"]}
        assert by_id["commutant-count"]["verdict"] == "refuted_at_this_n"
        assert by_id["preimage-closed-forms"]["verdict"] == "confirmed"
        assert by_id["graph-length-limit"]["verdict"] == "not_desk_checkable"


class TestSawtoothCommands:
    def test_eval_plain_output(self):
        cp = tentlab("sawtooth", "eval", "--k", "3", "--x", "1/2")
        assert cp.stdout == "1/2\n"

    def test_classify(self, tmp_path):
        plm_doc = {
            "breakpoints": [["0/1", "0/1"], ["1/2", "1/1"], ["1/1", "0/1"]]
        }
        path = tmp_path / "plm.json"
        path.write_text(json.dumps(plm_doc))
        cp = tentlab("sawtooth", "classify", "--plm", str(path))
        doc = json.loads(cp.stdout)
        validate(doc, "classification")
        assert doc == {"classification": "sawtooth", "k": 2}

    def test_classify_rejects_perturbed(self, tmp_path):
        plm_doc = {
            "breakpoints": [["0/1", "1/1024"], ["1/2", "1/1"], ["1/1", "0/1"]]
        }
        path = tmp_path / "plm.json"
        path.write_text(json.dumps(plm_doc))
        doc = json.loads(tentlab("sawtooth", "classify", "--plm", str(path)).stdout)
        assert doc == {"classification": "not_a_solution"}


class TestErrors:
    def test_malformed_rational_is_usage_error(self):
        cp = tentlab("sawtooth", "eval", "--k", "3", "--x", "nonsense", check=False)
        assert cp.returncode == 2

    def test_unknown_flag(self):
        cp = tentlab("preimages", "--n", "2", "--kind", "A", "--bogus", check=False)
        assert cp.returncode == 2

    def test_out_of_range_argument(self):
        cp = tentlab("sawtooth", "eval", "--k", "3", "--x", "5/4", check=False)
        assert cp.returncode == 2

    def test_depth_guard_is_usage_error(self):
        cp = tentlab("preimages", "--n", "30", "--kind", "A", check=False)
        assert cp.returncode == 2

    def test_probe_depth_guard_is_usage_error(self):
        cp = tentlab("probe", "--k", "3", "--start", "1,0", "--depth", "60", check=False)
        assert cp.returncode == 2
        assert "linearity_probe" in cp.stderr

    def test_non_fixed_base_value_is_usage_error(self):
        cp = tentlab("commutants", "enumerate", "--n", "2", "--x0", "1/2", check=False)
        assert cp.returncode == 2
        assert "x0" in cp.stderr and cp.stdout == ""

    def test_nonpositive_workers_are_usage_errors(self):
        for command in (("commutants", "enumerate"), ("commutants", "audit")):
            for workers in ("0", "-3"):
                cp = tentlab(*command, "--n", "1", "--workers", workers, check=False)
                assert cp.returncode == 2
                assert "--workers" in cp.stderr
        cp = tentlab("audit", "--max-n", "1", "--workers", "0", check=False)
        assert cp.returncode == 2
        assert "--workers" in cp.stderr

    def test_malformed_depth_override_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("TENTLAB_MAX_DEPTH", "abc")
        cp = tentlab("preimages", "--n", "2", "--kind", "A", check=False)
        assert cp.returncode == 2
        assert "TENTLAB_MAX_DEPTH" in cp.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [1, 2],
            {"breakpoints": [[0, "0"], ["1", "1"]]},
            {"breakpoints": [["1/2"], ["1", "1"]]},
        ],
        ids=["no-breakpoints", "not-an-object", "number-abscissa", "short-pair"],
    )
    def test_malformed_plm_is_usage_error(self, tmp_path, doc):
        path = tmp_path / "plm.json"
        path.write_text(json.dumps(doc))
        cp = tentlab("sawtooth", "classify", "--plm", str(path), check=False)
        assert cp.returncode == 2 and cp.stdout == ""
        assert cp.stderr == (
            'error: a map must be {"breakpoints": [[x, y], ...]} with x and y '
            'rational strings such as "1/2"\n'
        )

    def test_zero_denominator_in_plm_is_usage_error(self, tmp_path):
        path = tmp_path / "plm.json"
        path.write_text(json.dumps({"breakpoints": [["0", "1/0"], ["1", "1"]]}))
        cp = tentlab("sawtooth", "classify", "--plm", str(path), check=False)
        assert cp.returncode == 2 and cp.stdout == ""
        assert cp.stderr == "error: zero denominator in '1/0'\n"

    def test_csv_table(self):
        cp = tentlab("conjugacy", "table", "--v", "1/4", "--n", "1", "--format", "csv")
        assert cp.stdout == "x,h\n0/1,0/1\n1/2,1/4\n1/1,1/1\n"


def test_run_in_process(tmp_path, capsys):
    # the entry point is callable without a subprocess
    out = tmp_path / "doc.json"
    assert run(["preimages", "--n", "1", "--kind", "A", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["points"] == ["0/1", "1/1"]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --workers > 1 needs the pool, so no other command should load it
    code = "import sys, tentlab.cli; print('concurrent.futures.process' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert cp.stdout == "False\n"
