"""Write the canonical output set of the `bioright` CLI into a directory.

    python tools/canonical_outputs.py OUTDIR

The inputs are the seed-11 `recording` and `replay` inputs of
perfbench/gen.py, written under OUTDIR/inputs with the recording's 2D
JSON and its 3D `pixel_to_world` twin as CSV and JSON. Every output comes
from `bioright.cli.main`:

- `metrics`, and `reconstruct` of each segment and of each leg relative
  to the body over `--window-ms 1490:1640`, from all four recordings;
- `scale --step-metrics` of the lizard trajectory to 225 s;
- PlanarOffset `simulate` in both modes and `sweep --resolution 4` on it;
- `demo --resolution 4`.

Each command's stdout is written to OUTDIR/stdout/<output name>.txt, and
each run manifest is kept with its timestamp rewritten to TIMESTAMP; both
carry OUTDIR for the directory's path. So `diff -r` of two output sets is
empty when the code gives the same bytes; tests/canonical_outputs.sha256
holds each file's digest.
`bioright` is imported from PYTHONPATH first and from this repository's
src/ after it:
`PYTHONPATH=other/src python tools/canonical_outputs.py OUT` writes the
set of another checkout.
"""

import argparse
import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))

from bioright import cli, frames, keypoints  # noqa: E402

SEED = 11
WINDOW_MS = "1490:1640"
LEGS = [s for s in frames.Segment if s.value.endswith("Leg")]


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _run(*argv):
    """`bioright *argv`, whose last argument is its output in OUTDIR."""
    argv = [str(arg) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"bioright {' '.join(argv)} exited {code}")
    output = Path(argv[-1])
    (output.parent / "stdout").mkdir(exist_ok=True)
    (output.parent / "stdout" / f"{output.stem}.txt").write_text(
        stdout.getvalue().replace(str(output.parent), "OUTDIR"))


def write_outputs(out):
    out = Path(out).resolve()  # so that OUTDIR is a whole absolute path in stdout
    rec, rep = out / "inputs" / "recording", out / "inputs" / "replay"
    rec.mkdir(parents=True)
    rep.mkdir()
    gen = _perfbench_gen()
    gen.generate_recording(rec, SEED)
    gen.generate_replay(rep, SEED)

    pixels = keypoints.load_dataset(rec / "tracks.csv", frame_rate=gen.FRAME_RATE)
    world = keypoints.pixel_to_world(
        pixels, keypoints.PlanarCalibration(gen.SCALE, gen.ORIGIN))
    sources = {"2d_csv": rec / "tracks.csv"}  # the tracker export itself
    for name, dataset, fmt in (("2d_json", pixels, "json"), ("3d_csv", world, "csv"),
                               ("3d_json", world, "json")):
        sources[name] = rec / f"{name[:2]}.{fmt}"
        with open(sources[name], "w") as f:
            keypoints.save_dataset(dataset, f, format=fmt)
    for name, src in sources.items():
        common = ["--input", src, "--frame-rate", gen.FRAME_RATE]
        _run("metrics", *common, "--output", out / f"metrics_{name}.csv")
        for segment in frames.Segment:
            _run("reconstruct", *common, "--segment", segment.value, "--window-ms",
                 WINDOW_MS, "--output", out / f"{segment.value}_{name}.csv")
        for leg in LEGS:
            _run("reconstruct", *common, "--segment", leg.value, "--relative-to-body",
                 "--window-ms", WINDOW_MS,
                 "--output", out / f"{leg.value}_rel_{name}.csv")

    reference, config = out / "reference.csv", rep / "planar.cfg"
    _run("scale", "--input", rep / "lizard.csv", "--target-duration", "225",
         "--step-metrics", "--output", reference)
    for mode in ("prescribed", "pd"):
        _run("simulate", "--mode", mode, "--config", config, "--reference", reference,
             "--output", out / f"planar_{mode}.csv")
    _run("sweep", "--resolution", "4", "--config", config, "--reference", reference,
         "--output", out / "planar_sweep.csv")
    _run("demo", "--resolution", "4", "--output-dir", out / "demo")
    for manifest in out.rglob("*.manifest.json"):
        manifest.write_text(re.sub(r'"timestamp": "[^"]*"', '"timestamp": "TIMESTAMP"',
                                   manifest.read_text().replace(str(out), "OUTDIR")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="a directory that does not exist yet")
    write_outputs(parser.parse_args(argv).outdir)


if __name__ == "__main__":
    main()
