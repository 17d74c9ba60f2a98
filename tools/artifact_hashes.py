"""Hash the artifacts of a fixed set of small runs, for byte-identity checks
between two versions of the library.

    PYTHONPATH=src python3 tools/artifact_hashes.py OUT

Writes every artifact into OUT (which must not exist yet) and prints one
`sha256  path` line per file, sorted by path.  The set: a 3D extended
N = 64 run with periodic snapshots, the weak-strong-3d, small-data-2p5d,
freq-split-3d and threshold-bisect presets (cut short or at N = 16), three
2.5D runs and two compute_budgets runs, the `check` output, `inspect` of a
snapshot, and probe CSVs.  Takes about half a minute on one core.  Run it
at both versions and diff the listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from hallmhd import RunConfig, run
from hallmhd.cli import main as cli_main
from hallmhd.presets import experiment
from hallmhd.probes import inequality_probe, kato_ponce_probe

RUNS = {
    "ext3d-n64": dict(dimension=3.0, formulation="extended", n=64, amplitude=0.1,
                      band_lo=1.0, band_hi=2.0, hall_cfl=0.5, dt=1e-3, t_end=0.01,
                      sample_every=25, snapshot_every=0.005, seed=11),
    "2p5d-n32": dict(dimension=2.5, n=32, t_end=0.2, sample_every=10),
    "2p5d-n16-mu-ne-nu": dict(dimension=2.5, n=16, mu=1.0, nu=0.5, t_end=0.1,
                              sample_every=3, seed=4),
    "2p5d-n16-single-mode": dict(dimension=2.5, n=16, init_kind="single_mode_b3",
                                 t_end=0.05, sample_every=1),
    "budgets-n16": dict(dimension=3.0, formulation="extended", n=16, t_end=0.05,
                        sample_every=5, compute_budgets=True),
    "budgets-n16-every-step": dict(dimension=3.0, formulation="extended", n=16,
                                   t_end=0.01, sample_every=1, compute_budgets=True,
                                   budget_s=0.5),
}

EXPERIMENTS = {
    "weak-strong-3d": dict(n=32, t_end=0.04),
    "small-data-2p5d": dict(t_end=0.15),
    "freq-split-3d": dict(n=16, t_end=0.1),
    "threshold-bisect": dict(n=16),
}


def _captured(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return f"{buf.getvalue()}exit {code}\n"


def produce(out: Path) -> None:
    for name, kw in RUNS.items():
        run(RunConfig(**kw), out_dir=out / name)
    for preset, kw in EXPERIMENTS.items():
        experiment(preset, out / preset, seed=0, **kw)
    cli = out / "cli"
    cli.mkdir()
    (cli / "check.txt").write_text(_captured(
        ["check", "--n", "16", "--fields", "4", "--pairs", "4", "--probe-samples", "2"]))
    (cli / "inspect.txt").write_text(_captured(
        ["inspect", str(out / "ext3d-n64" / "snap_final.hmhd")]))
    for iid in ("em", "gn1", "product"):
        inequality_probe(iid, 3, 32, seed=1).write_csv(cli / f"probe_{iid}.csv")
    for key, rep in kato_ponce_probe(1.0, 2.0, 4.0, 4.0, 4.0, 4.0, samples=3).items():
        rep.write_csv(cli / f"kato_ponce_{key}.csv")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True)
    produce(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
