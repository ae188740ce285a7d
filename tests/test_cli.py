import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_asu
from symadit import cif as cifio
from symadit import crystal as cr
from symadit import cli, symcat
from symadit.cli import build_parser, main
from symadit.flowmatch import Denoiser, DenoiserConfig


@pytest.fixture(scope="module")
def dataset(catalog, tmp_path_factory):
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("data")
    asus = []
    for g in (1, 2, 14, 62, 139, 166, 194, 221, 225, 225, 14, 2):
        asus.append(random_asu(catalog, g, rng, max_sites=2))
    path = root / "train.jsonl"
    cr.write_dataset_jsonl(path, asus)
    return path, asus


def test_catalog_command(capsys):
    assert main(["catalog", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "230 groups, 1731 positions, OK" in out


def test_catalog_command_reports_a_collapsed_orbit(tmp_path):
    vendored = Path(symcat.__file__).parent / "data" / "sg_catalog.txt"
    lines = vendored.read_text().splitlines()
    index = lines.index("WY a 1 0,0,0 | x,y,z",
                        lines.index("G 2 P-1 triclinic"))
    lines[index] = "WY a 2 0,0,0 | x,y,z;-x,-y,-z"
    edited = tmp_path / "edited.txt"
    edited.write_text("\n".join(lines) + "\n")
    symcat.load_catalog(edited)
    assert main(["--catalog", str(edited), "catalog", "--seed", "1"]) == 2


def test_usage_error_exit_code():
    assert main(["definitely-not-a-command"]) == 1
    assert main([]) == 1


TRAINING_FLAGS = ("--steps", "--epochs", "--batch-size", "--log-every")
NUMERIC_FLAGS = ([("train-ae", f) for f in TRAINING_FLAGS]
                 + [("train-fm", f) for f in TRAINING_FLAGS]
                 + [("generate", "--count"), ("generate", "--steps"),
                    ("evaluate", "--n-novelty")])


FLOAT_FLAGS = [("ingest", "--tol"), ("train-ae", "--lr"), ("train-fm", "--lr"),
               ("evaluate", "--ltol"), ("evaluate", "--stol"),
               ("evaluate", "--angle-tol")]


def _refused_while_parsing(tmp_path, capsys, command, flag, value):
    """A bad flag value is a usage error (exit 1) found while parsing: no
    input is read and no output folder is made."""
    out = tmp_path / "out"
    required = {
        "catalog": [],
        "ingest": ["--input", str(tmp_path / "cifs"),
                   "--out", str(out / "data.jsonl")],
        "train-ae": ["--data", str(tmp_path / "d.jsonl"), "--out", str(out)],
        "train-fm": ["--data", str(tmp_path / "d.jsonl"),
                     "--ae", str(tmp_path / "ae.ckpt"), "--out", str(out)],
        "generate": ["--fm", str(tmp_path / "fm.ckpt"),
                     "--ae", str(tmp_path / "ae.ckpt"), "--out", str(out)],
        "evaluate": ["--gen", str(tmp_path / "g.jsonl"),
                     "--train", str(tmp_path / "t.jsonl"),
                     "--out", str(out / "report.json")],
    }[command]
    assert main([command, *required, flag, value]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command,flag", NUMERIC_FLAGS)
def test_numeric_flags_must_be_positive_integers(tmp_path, capsys, command,
                                                 flag, value):
    _refused_while_parsing(tmp_path, capsys, command, flag, value)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
def test_float_flags_must_be_positive_and_finite(tmp_path, capsys, command,
                                                 flag, value):
    _refused_while_parsing(tmp_path, capsys, command, flag, value)


@pytest.mark.parametrize("value", ["nan", "inf", "NaN", "x"])
def test_cfg_scale_must_be_finite(tmp_path, capsys, value):
    _refused_while_parsing(tmp_path, capsys, "generate", "--cfg-scale", value)


@pytest.mark.parametrize("value", ["0", "1", "-2.5", "7"])
def test_every_finite_cfg_scale_is_accepted(value):
    args = build_parser().parse_args(
        ["generate", "--fm", "fm.ckpt", "--ae", "ae.ckpt", "--out", "out",
         "--cfg-scale", value])
    assert args.cfg_scale == float(value)


@pytest.mark.parametrize("command", ["catalog", "train-ae", "train-fm",
                                     "generate", "evaluate"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command):
    for value in ("-1", "1.5"):
        _refused_while_parsing(tmp_path, capsys, command, "--seed", value)


def test_seed_zero_is_accepted():
    args = build_parser().parse_args(
        ["evaluate", "--gen", "g", "--train", "t", "--out", "o", "--seed", "0"])
    assert args.seed == 0


def test_missing_file_is_validation_or_runtime(tmp_path):
    rc = main(["train-ae", "--data", str(tmp_path / "none.jsonl"),
               "--out", str(tmp_path)])
    assert rc == 3


def test_ingest_cif_directory(catalog, tmp_path, nacl, capsys):
    cif_dir = tmp_path / "cifs"
    cif_dir.mkdir()
    full = cr.expand_asu(nacl, catalog)
    (cif_dir / "nacl.cif").write_text(cifio.write_cif(full))
    (cif_dir / "broken.cif").write_text("data_x\nnothing")
    out = tmp_path / "ingested.jsonl"
    assert main(["ingest", "--input", str(cif_dir), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ingested 1 structures" in text
    assert "mean tokens/sample 2.00" in text
    back = cr.read_dataset_jsonl(out)
    assert back[0].spacegroup == 225
    letters = sorted(s.wyckoff for s in back[0].sites)
    assert letters == ["a", "b"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stats"]["skipped"]


def test_ingest_skips_by_category(catalog, tmp_path, nacl):
    cif_dir = tmp_path / "cifs"
    cif_dir.mkdir()
    full = cr.expand_asu(nacl, catalog)
    (cif_dir / "nacl.cif").write_text(cifio.write_cif(full))
    (cif_dir / "broken.cif").write_text("data_x\nnothing")
    no_group = cr.FullCrystal(full.lattice, full.elements, full.frac)
    (cif_dir / "no_group.cif").write_text(cifio.write_cif(no_group))
    off = cr.FullCrystal(full.lattice, full.elements, full.frac + 0.1,
                         spacegroup=225)
    (cif_dir / "off_setting.cif").write_text(cifio.write_cif(off))
    (tmp_path / "cif").mkdir()
    (tmp_path / "jsonl").mkdir()
    assert main(["ingest", "--input", str(cif_dir),
                 "--out", str(tmp_path / "cif" / "out.jsonl")]) == 0
    manifest = json.loads((tmp_path / "cif" / "manifest.json").read_text())
    assert manifest["stats"]["skipped"] == {
        "cif_parse": 1, "missing_space_group": 1, "wyckoff_assignment": 1,
        "invalid_record": 0}

    bad = cr.CrystalASU(spacegroup=225, sites=[
        cr.Site(element=11, wyckoff="a", frac=np.full(3, 0.1))],
        lattice=nacl.lattice)
    records = tmp_path / "records.jsonl"
    cr.write_dataset_jsonl(records, [nacl, bad])
    assert main(["ingest", "--input", str(records),
                 "--out", str(tmp_path / "jsonl" / "out.jsonl")]) == 0
    manifest = json.loads((tmp_path / "jsonl" / "manifest.json").read_text())
    assert manifest["stats"]["skipped"] == {
        "cif_parse": 0, "missing_space_group": 0, "wyckoff_assignment": 0,
        "invalid_record": 1}


def test_one_bad_cif_is_a_skip(catalog, tmp_path, nacl):
    # `?` is CIF's "unknown", so that file has no group and no --sg-table
    # entry; an esd or a number outside 1..230, a cell that closes no
    # lattice, a non-finite coordinate and bytes that are not text are
    # CIFs that do not parse
    cif_dir = tmp_path / "cifs"
    cif_dir.mkdir()
    text = cifio.write_cif(cr.expand_asu(nacl, catalog))
    tag = "_symmetry_Int_Tables_number      225"
    angle = "_cell_angle_alpha   90.000000"
    coord = "Na1 Na 0.000000"
    for old in (tag, angle, coord):
        assert old in text
    for name, old, new in (
            ("nacl", tag, tag),
            ("unknown", tag, "_symmetry_Int_Tables_number ?"),
            ("esd", tag, "_symmetry_Int_Tables_number 225(1)"),
            ("past_230", tag, "_symmetry_Int_Tables_number 231"),
            ("open_cell", angle, "_cell_angle_alpha 200"),
            ("nan", coord, "Na1 Na nan")):
        (cif_dir / f"{name}.cif").write_text(text.replace(old, new))
    (cif_dir / "latin1.cif").write_bytes(text.encode() + b"# \xe9\n")
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "--input", str(cif_dir), "--out", str(out)]) == 0
    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert manifest["stats"]["ingested"] == 1
    assert manifest["stats"]["skipped"] == {
        "cif_parse": 5, "missing_space_group": 1, "wyckoff_assignment": 0,
        "invalid_record": 0}
    assert [a.spacegroup for a in cr.read_dataset_jsonl(out)] == [225]

    table = tmp_path / "sg.json"
    table.write_text(json.dumps({"unknown.cif": 231}))
    assert main(["ingest", "--input", str(cif_dir), "--out", str(out),
                 "--sg-table", str(table)]) == 2


@pytest.mark.parametrize("table, offender", [
    (["unknown.cif"], "not a JSON object"),
    ({"nacl.cif": 225, "unknown.cif": [225]}, "'unknown.cif'"),
    ({"unknown.cif": 2.7}, "'unknown.cif'"),
    ({"unknown.cif": True}, "'unknown.cif'"),
    ({"unknown.cif": 231}, "'unknown.cif'"),   # the file has no tag
    ({"nacl.cif": 231}, "'nacl.cif'"),         # the file's tag wins
    ({"nacl.cif": 0}, "'nacl.cif'"),
])
def test_sg_table_must_map_names_to_integers(catalog, tmp_path, nacl, capsys,
                                             table, offender):
    """A table that is not an object of plain integers in 1..230 is refused
    where it is loaded (exit 2, naming the key), before any CIF is read."""
    cif_dir = tmp_path / "cifs"
    cif_dir.mkdir()
    text = cifio.write_cif(cr.expand_asu(nacl, catalog))
    tag = "_symmetry_Int_Tables_number      225"
    (cif_dir / "nacl.cif").write_text(text)
    (cif_dir / "unknown.cif").write_text(
        text.replace(tag, "_symmetry_Int_Tables_number ?"))
    path = tmp_path / "sg.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "out" / "out.jsonl"
    assert main(["ingest", "--input", str(cif_dir), "--out", str(out),
                 "--sg-table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure:") and offender in err
    assert not out.parent.exists()


def test_ingest_manifest_timings(catalog, tmp_path, nacl):
    cif_dir = tmp_path / "cifs"
    cif_dir.mkdir()
    (cif_dir / "nacl.cif").write_text(
        cifio.write_cif(cr.expand_asu(nacl, catalog)))
    records = tmp_path / "records.jsonl"
    cr.write_dataset_jsonl(records, [nacl])
    for name, source in (("cif", cif_dir), ("jsonl", records)):
        out = tmp_path / name / "out.jsonl"
        start = time.perf_counter()
        assert main(["ingest", "--input", str(source), "--out", str(out)]) == 0
        wall = time.perf_counter() - start
        timings = json.loads((out.parent / "manifest.json").read_text()
                             )["timings"]
        assert set(timings) == {"read_s", "assign_s", "write_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= wall


def test_ingest_creates_its_output_folder(tmp_path, nacl):
    records = tmp_path / "records.jsonl"
    cr.write_dataset_jsonl(records, [nacl])
    out = tmp_path / "new" / "out.jsonl"
    assert main(["ingest", "--input", str(records), "--out", str(out)]) == 0
    assert len(cr.read_dataset_jsonl(out)) == 1
    assert (out.parent / "manifest.json").exists()


def _malformed_records(nacl) -> list[str]:
    """JSONL lines that no asymmetric unit can be built from or validated."""
    good = cr.asu_to_record(nacl)

    def edited(**changes):
        return json.dumps({**good, **changes})

    site = good["sites"][0]
    return [
        edited(sites=[{**site, "el": 300}]),
        edited(sg=None),
        "[1, 2, 3]",
        edited(sites=5),
        edited(sites=[{**site, "wy": "z"}]),
    ]


def test_ingest_counts_malformed_records_and_goes_on(tmp_path, nacl):
    records = tmp_path / "records.jsonl"
    good = json.dumps(cr.asu_to_record(nacl))
    records.write_text(
        "\n".join([good, *_malformed_records(nacl)]) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "--input", str(records), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stats"]["ingested"] == 1
    assert manifest["stats"]["skipped"]["invalid_record"] == 5
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()
            ] == ["0"]


def test_malformed_record_is_a_validation_failure(tmp_path, nacl):
    train = tmp_path / "train.jsonl"
    cr.write_dataset_jsonl(train, [nacl])
    for i, line in enumerate(_malformed_records(nacl)):
        gen = tmp_path / f"gen{i}.jsonl"
        gen.write_text(line + "\n")
        assert main(["evaluate", "--gen", str(gen), "--train", str(train),
                     "--out", str(tmp_path / "report.json")]) == 2, line


def test_evaluate_counts_invalid_and_degenerate(tmp_path, nacl):
    def p1(lattice, *fracs):
        return cr.CrystalASU(spacegroup=1, lattice=lattice, sites=[
            cr.Site(element=6, wyckoff="a", frac=np.array(f)) for f in fracs])

    overlap = p1([5, 5, 5, 90, 90, 90], [0, 0, 0], [0.002, 0, 0])
    tiny = p1([0.4, 0.4, 0.4, 90, 90, 90], [0, 0, 0])
    collapsed = cr.CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
        cr.Site(element=11, wyckoff="e", frac=np.zeros(3))])  # x = 0: 4a
    gen_path, train_path = tmp_path / "gen.jsonl", tmp_path / "train.jsonl"
    cr.write_dataset_jsonl(gen_path, [nacl, overlap, tiny, collapsed])
    cr.write_dataset_jsonl(train_path, [nacl])
    assert main(["evaluate", "--gen", str(gen_path), "--train",
                 str(train_path), "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    counters = json.loads((tmp_path / "manifest.json").read_text())["counters"]
    assert report["n_generated"] == 4
    assert report["structural_validity_rate"] == 50.0
    assert counters["invalid_distance"] == 1
    assert counters["invalid_volume"] == 1
    assert counters["degenerate_orbits"] == 1
    assert counters["off_form_structures"] == 0
    assert "counters" not in report


def test_full_pipeline_desk_scale(catalog, dataset, tmp_path, capsys):
    train_path, asus = dataset
    work = tmp_path

    rc = main(["train-ae", "--data", str(train_path),
               "--out", str(work / "ae"), "--steps", "30",
               "--batch-size", "4", "--seed", "3"])
    assert rc == 0
    assert (work / "ae" / "ae.ckpt").exists()
    assert (work / "ae" / "loss_ae.csv").exists()

    rc = main(["train-fm", "--data", str(train_path),
               "--ae", str(work / "ae" / "ae.ckpt"),
               "--out", str(work / "fm"), "--steps", "30",
               "--batch-size", "4", "--seed", "4"])
    assert rc == 0
    assert (work / "fm" / "fm.ckpt").exists()
    assert (work / "fm" / "priors.json").exists()

    rc = main(["generate", "--fm", str(work / "fm" / "fm.ckpt"),
               "--ae", str(work / "ae" / "ae.ckpt"),
               "--out", str(work / "gen"), "--count", "8",
               "--steps", "6", "--seed", "5"])
    assert rc == 0
    gen_path = work / "gen" / "generated.jsonl"
    produced = cr.read_dataset_jsonl(gen_path)
    assert produced
    assert len(list((work / "gen" / "cif").glob("*.cif"))) == len(produced)
    manifest = json.loads((work / "gen" / "manifest.json").read_text())
    assert set(manifest["timings"]) == {"load_s", "sample_s", "write_s"}
    assert "timings" not in manifest["config"]
    assert len(produced) == 8
    assert "rejections" not in manifest
    counters = manifest["counters"]
    assert set(counters) == {"lattice_clamps", "closing_cell_pulls",
                             "degenerate_orbits"}
    assert counters["degenerate_orbits"] == sum(
        orbits.degenerate for asu in produced
        for orbits in cr.expand_orbits([asu], catalog))

    rc = main(["evaluate", "--gen", str(gen_path),
               "--train", str(train_path),
               "--out", str(work / "report.json"),
               "--n-novelty", "5", "--seed", "6"])
    assert rc == 0
    report = json.loads((work / "report.json").read_text())
    assert 0 <= report["structural_validity_rate"] <= 100
    manifest = json.loads((work / "manifest.json").read_text())
    assert manifest["command"] == "evaluate"
    assert set(manifest["timings"]) == {"load_s", "evaluate_s", "write_s"}
    counters = manifest["counters"]
    assert set(counters) == {"match_pairs_compared", "match_pairs_pruned",
                             "invalid_distance", "invalid_volume",
                             "degenerate_orbits", "off_form_structures",
                             "references_expanded"}
    assert counters["references_expanded"] <= len(asus)
    assert counters["off_form_structures"] == 0    # decoded units are exact
    n_valid = round(report["structural_validity_rate"] * len(produced) / 100)
    assert counters["invalid_distance"] + counters["invalid_volume"] == \
        len(produced) - n_valid
    table = capsys.readouterr().out
    assert "JSD_G" in table

    rc = main(["export-latents", "--ae", str(work / "ae" / "ae.ckpt"),
               "--data", str(train_path),
               "--out", str(work / "latents.csv")])
    assert rc == 0
    rows = (work / "latents.csv").read_text().strip().splitlines()
    assert len(rows) == len(asus) + 1  # header + one row per crystal
    values = np.array([[float(v) for v in r.split(",")[1:]]
                       for r in rows[1:]])
    assert np.max(np.abs(values)) < 5.0

    # re-export is deterministic
    rc = main(["export-latents", "--ae", str(work / "ae" / "ae.ckpt"),
               "--data", str(train_path),
               "--out", str(work / "latents2.csv")])
    assert (work / "latents.csv").read_text() == \
        (work / "latents2.csv").read_text()


def test_generate_refuses_mismatched_ae(dataset, tmp_path):
    train_path, _ = dataset
    work = tmp_path
    assert main(["train-ae", "--data", str(train_path),
                 "--out", str(work / "ae"), "--steps", "5",
                 "--batch-size", "4"]) == 0
    assert main(["train-fm", "--data", str(train_path),
                 "--ae", str(work / "ae" / "ae.ckpt"),
                 "--out", str(work / "fm"), "--steps", "5",
                 "--batch-size", "4"]) == 0
    # retrain stage 1 so the hash changes
    assert main(["train-ae", "--data", str(train_path),
                 "--out", str(work / "ae"), "--steps", "6",
                 "--batch-size", "4", "--seed", "9"]) == 0
    rc = main(["generate", "--fm", str(work / "fm" / "fm.ckpt"),
               "--ae", str(work / "ae" / "ae.ckpt"),
               "--out", str(work / "gen"), "--count", "2", "--steps", "2"])
    assert rc == 2


def test_train_fm_refuses_tampered_ae(dataset, tmp_path):
    train_path, _ = dataset
    work = tmp_path
    assert main(["train-ae", "--data", str(train_path),
                 "--out", str(work / "ae"), "--steps", "5",
                 "--batch-size", "4"]) == 0
    ckpt = work / "ae" / "ae.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[-8:] = b"\x00" * 8
    ckpt.write_bytes(bytes(raw))
    rc = main(["train-fm", "--data", str(train_path),
               "--ae", str(ckpt), "--out", str(work / "fm"),
               "--steps", "3", "--batch-size", "4"])
    assert rc == 2


def test_resume_training_identical_losses(dataset, tmp_path):
    train_path, _ = dataset
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train-ae", "--data", str(train_path), "--out", str(a),
                 "--steps", "20", "--batch-size", "4", "--seed", "11",
                 "--log-every", "5"]) == 0
    assert main(["train-ae", "--data", str(train_path), "--out", str(b),
                 "--steps", "10", "--batch-size", "4", "--seed", "11",
                 "--log-every", "5"]) == 0
    assert main(["train-ae", "--data", str(train_path), "--out", str(b),
                 "--steps", "20", "--batch-size", "4", "--seed", "11",
                 "--log-every", "5", "--resume", str(b / "ae.ckpt")]) == 0
    rows_a = (a / "loss_ae.csv").read_text().strip().splitlines()
    rows_b = (b / "loss_ae.csv").read_text().strip().splitlines()
    assert rows_a[-1].split(",")[1] == rows_b[-1].split(",")[1]


def test_train_fm_streams_loss_log_across_resume(dataset, tmp_path):
    train_path, _ = dataset
    ae, fm = tmp_path / "ae", tmp_path / "fm"
    assert main(["train-ae", "--data", str(train_path), "--out", str(ae),
                 "--steps", "2", "--batch-size", "4"]) == 0
    train_fm = ["train-fm", "--data", str(train_path),
                "--ae", str(ae / "ae.ckpt"), "--out", str(fm),
                "--batch-size", "4", "--log-every", "1"]
    assert main(train_fm + ["--steps", "3"]) == 0
    assert main(train_fm + ["--steps", "5",
                            "--resume", str(fm / "fm.ckpt")]) == 0
    rows = (fm / "loss_fm.csv").read_text().splitlines()
    assert rows[0] == "step,loss"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]


def test_same_seed_same_outputs(dataset, tmp_path):
    train_path, _ = dataset
    work = tmp_path
    assert main(["train-ae", "--data", str(train_path),
                 "--out", str(work / "ae"), "--steps", "10",
                 "--batch-size", "4"]) == 0
    assert main(["train-fm", "--data", str(train_path),
                 "--ae", str(work / "ae" / "ae.ckpt"),
                 "--out", str(work / "fm"), "--steps", "10",
                 "--batch-size", "4"]) == 0
    for sub in ("g1", "g2"):
        assert main(["generate", "--fm", str(work / "fm" / "fm.ckpt"),
                     "--ae", str(work / "ae" / "ae.ckpt"),
                     "--out", str(work / sub), "--count", "4",
                     "--steps", "4", "--seed", "21"]) == 0
    assert (work / "g1" / "generated.jsonl").read_text() == \
        (work / "g2" / "generated.jsonl").read_text()


@pytest.fixture(scope="module")
def trained_pair(dataset, tmp_path_factory):
    """Directory with a 3-step stage-1 and stage-2 pair; tests copy it."""
    train_path, _ = dataset
    root = tmp_path_factory.mktemp("pair")
    assert main(["train-ae", "--data", str(train_path),
                 "--out", str(root / "ae"), "--steps", "3",
                 "--batch-size", "4"]) == 0
    assert main(["train-fm", "--data", str(train_path),
                 "--ae", str(root / "ae" / "ae.ckpt"),
                 "--out", str(root / "fm"), "--steps", "3",
                 "--batch-size", "4"]) == 0
    return root


def _copy_pair(trained_pair, tmp_path):
    work = tmp_path / "pair"
    shutil.copytree(trained_pair, work)
    return work


def _generate(work, ae=None):
    return main(["generate", "--fm", str(work / "fm" / "fm.ckpt"),
                 "--ae", str(ae or work / "ae" / "ae.ckpt"),
                 "--out", str(work / "gen"), "--count", "1", "--steps", "2"])


def _train_fm(dataset, work, *extra):
    return main(["train-fm", "--data", str(dataset[0]),
                 "--ae", str(work / "ae" / "ae.ckpt"),
                 "--out", str(work / "fm2"), "--steps", "4",
                 "--batch-size", "4", *extra])


def test_missing_sidecar_is_a_validation_failure(dataset, trained_pair,
                                                 tmp_path, capsys):
    work = _copy_pair(trained_pair, tmp_path)
    assert _generate(work) == 0
    (work / "ae" / "ae.ckpt.json").unlink()
    assert _generate(work) == 2
    assert _train_fm(dataset, work) == 2
    assert "ae.ckpt.json is missing" in capsys.readouterr().err


def test_malformed_checkpoint_with_a_matching_sidecar_is_a_validation_failure(
        trained_pair, tmp_path, capsys):
    work = _copy_pair(trained_pair, tmp_path)
    ckpt, sidecar = work / "ae" / "ae.ckpt", work / "ae" / "ae.ckpt.json"
    payload = b"CKPT v1\n\x05"   # the parameter count is cut short
    ckpt.write_bytes(payload)
    manifest = json.loads(sidecar.read_text())
    manifest["hash"] = hashlib.sha256(payload).hexdigest()
    sidecar.write_text(json.dumps(manifest))
    assert _generate(work) == 2
    assert (f"validation failure: {ckpt}: malformed checkpoint"
            in capsys.readouterr().err)
    assert not (work / "gen").exists()


def test_generate_writes_what_per_crystal_expansion_writes(
        catalog, trained_pair, tmp_path, monkeypatch, nacl):
    """The CIF files, generated.jsonl and manifest counters of `generate`,
    which expands one Wyckoff position at a time over all its crystals,
    are byte-identical to expanding each crystal alone. Two collapsed
    orbits and random crystals join the sampled ones."""
    rng = np.random.default_rng(3)
    extra = [random_asu(catalog, g, rng) for g in (1, 14, 166, 225, 229)]
    extra.append(cr.CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
        *nacl.sites,
        cr.Site(element=8, wyckoff="e", frac=np.zeros(3)),        # 4a
        cr.Site(element=9, wyckoff="e", frac=np.array([0.5, 0, 0]))]))
    seen = {}

    def sample_and_extend(priors, cfg, denoiser, model, count, counters):
        asus, stats = cli_sample(priors, cfg, denoiser, model, count, counters)
        seen.update(asus=asus + extra, counters=dict(counters))
        return asus + extra, stats

    cli_sample = cli.sample
    monkeypatch.setattr(cli, "sample", sample_and_extend)
    work = _copy_pair(trained_pair, tmp_path)
    assert main(["generate", "--fm", str(work / "fm" / "fm.ckpt"),
                 "--ae", str(work / "ae" / "ae.ckpt"), "--out",
                 str(work / "gen"), "--count", "3", "--steps", "2"]) == 0

    counters = seen["counters"]
    names = [f"gen-{i:05d}" for i in range(len(seen["asus"]))]
    for name, asu in zip(names, seen["asus"]):
        orbits, = cr.expand_orbits([asu], catalog)
        counters["degenerate_orbits"] += orbits.degenerate
        cif = cifio.write_cif(orbits.cell(), name=name)
        assert (work / "gen" / "cif" / f"{name}.cif").read_text() == cif
    assert len(list((work / "gen" / "cif").iterdir())) == len(names)
    cr.write_dataset_jsonl(work / "per_crystal.jsonl", seen["asus"], names)
    assert (work / "gen" / "generated.jsonl").read_bytes() == \
        (work / "per_crystal.jsonl").read_bytes()
    assert counters["degenerate_orbits"] == 2
    assert json.loads((work / "gen" / "manifest.json").read_text())[
        "counters"] == counters


def test_generate_refuses_tampered_denoiser(trained_pair, tmp_path):
    work = _copy_pair(trained_pair, tmp_path)
    ckpt = work / "fm" / "fm.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[-8:] = b"\x00" * 8
    ckpt.write_bytes(bytes(raw))
    assert _generate(work) == 2


def test_train_fm_resume_refuses_latent_width_mismatch(dataset, trained_pair,
                                                       tmp_path, capsys):
    work = _copy_pair(trained_pair, tmp_path)
    ae_hash = json.loads((work / "ae" / "ae.ckpt.json").read_text())["hash"]
    narrow = Denoiser(DenoiserConfig.desk(d_latent=8),
                      ae_checkpoint_hash=ae_hash)
    narrow.save(work / "narrow.ckpt")
    assert _train_fm(dataset, work, "--resume", str(work / "narrow.ckpt")) == 2
    assert "latent dimension mismatch" in capsys.readouterr().err


def test_missing_checkpoint_is_a_runtime_failure(dataset, trained_pair,
                                                 tmp_path):
    work = _copy_pair(trained_pair, tmp_path)
    assert _generate(work, ae=work / "none.ckpt") == 3
    (work / "ae" / "ae.ckpt").unlink()
    assert _train_fm(dataset, work) == 3


def _add_config_key(sidecar: Path, key="renamed_field", value=1) -> str:
    original = sidecar.read_text()
    manifest = json.loads(original)
    manifest["config"][key] = value   # the hash still matches
    sidecar.write_text(json.dumps(manifest))
    return original


def test_unknown_config_key_is_a_validation_failure(dataset, trained_pair,
                                                    tmp_path, capsys):
    work = _copy_pair(trained_pair, tmp_path)
    ae_sidecar = work / "ae" / "ae.ckpt.json"
    original = _add_config_key(ae_sidecar)
    assert main(["export-latents", "--ae", str(work / "ae" / "ae.ckpt"),
                 "--data", str(dataset[0]),
                 "--out", str(work / "latents.csv")]) == 2
    assert "renamed_field" in capsys.readouterr().err
    ae_sidecar.write_text(original)
    _add_config_key(work / "fm" / "fm.ckpt.json")
    assert _generate(work) == 2
    assert "renamed_field" in capsys.readouterr().err


@pytest.mark.parametrize("stage, key, value", [
    ("ae", "lambda_frac", 5.0), ("ae", "warmup", 100),
    ("fm", "cond_drop", 0.1), ("fm", "time_features", 64)])
def test_sidecar_with_a_field_that_became_a_constant_is_refused(
        trained_pair, tmp_path, capsys, stage, key, value):
    # a checkpoint written while the hyperparameters were config fields
    work = _copy_pair(trained_pair, tmp_path)
    _add_config_key(work / stage / f"{stage}.ckpt.json", key, value)
    assert _generate(work) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and key in err
    assert not (work / "gen").exists()


@pytest.mark.parametrize("stage", ["ae", "fm"])
def test_checkpoint_outside_its_config_layout_is_a_validation_failure(
        trained_pair, tmp_path, capsys, stage):
    work = _copy_pair(trained_pair, tmp_path)
    ckpt = work / stage / f"{stage}.ckpt"
    _add_config_key(ckpt.with_suffix(".ckpt.json"), "n_layers", 3)
    assert _generate(work) == 2
    assert (f"validation failure: {ckpt}: checkpoint does not fit its "
            "config: it lacks" in capsys.readouterr().err)
    assert not (work / "gen").exists()


@pytest.mark.parametrize("stage", ["ae", "fm"])
def test_malformed_manifest_is_a_validation_failure_naming_it(
        trained_pair, tmp_path, capsys, stage):
    work = _copy_pair(trained_pair, tmp_path)
    sidecar = work / stage / f"{stage}.ckpt.json"
    digest = json.loads(sidecar.read_text())["hash"]
    for text in ("[]", "{", json.dumps({"hash": digest})):
        sidecar.write_text(text)
        assert _generate(work) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("validation failure: ") and str(sidecar) in err
    assert not (work / "gen").exists()


def test_generate_refuses_malformed_priors(trained_pair, tmp_path, capsys):
    work = _copy_pair(trained_pair, tmp_path)
    for i, priors in enumerate(["[1]", "{}",
                                '{"G": {"1": 1.0}, "O_given_G": {}}']):
        (work / f"bad{i}.json").write_text(priors)
        assert main(["generate", "--fm", str(work / "fm" / "fm.ckpt"),
                     "--ae", str(work / "ae" / "ae.ckpt"),
                     "--priors", str(work / f"bad{i}.json"),
                     "--out", str(work / "gen"), "--count", "1",
                     "--steps", "2"]) == 2
        assert "validation failure: priors:" in capsys.readouterr().err
    assert not (work / "gen").exists()


def test_generate_reads_priors_before_the_checkpoints(tmp_path, capsys):
    # neither checkpoint exists: a malformed priors file is reported first
    bad = tmp_path / "bad.json"
    bad.write_text('{"G": {"1": 1.0}, "O_given_G": {}}')
    assert main(["generate", "--fm", str(tmp_path / "fm.ckpt"),
                 "--ae", str(tmp_path / "ae.ckpt"), "--priors", str(bad),
                 "--out", str(tmp_path / "gen"), "--count", "1"]) == 2
    assert "validation failure: priors:" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()
