"""Hash the artifacts of a fixed set of small runs, for byte-identity checks
between two versions of the library.

    PYTHONPATH=src python3 tools/artifact_hashes.py OUT

Writes every artifact into OUT (which must not exist yet) and prints one
`sha256  path` line per file, sorted by path.  The set: a 3D extended
N = 64 run with periodic snapshots, a 3D physical N = 24 run with mu != nu
and periodic snapshots, all seven presets (cut short, or at N = 16 or 32),
four 2.5D runs (one at N = 128, where the stepper may take two lanes),
two compute_budgets runs, a one-step 3D and a two-step 2.5D run (the
shortest dissipation series), a 3D extended run that breaks a step guard
mid-run (its snap_last_good.hmhd), the `check` output, `inspect` of a
snapshot, and probe CSVs.  Takes about 5 s on a 2-vCPU machine, with two
CPUs or one.  Run it at both versions, with two CPUs and under
`taskset -c 0`, and diff the listings; all four must match (with two
CPUs each 2.5D sample's certificate runs in the forked worker, under
`taskset -c 0` inline).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from hallmhd import RunConfig, run
from hallmhd.cli import main as cli_main
from hallmhd.grid import GridSpec
from hallmhd.params import PhysicalParams, StepControl, required_dt
from hallmhd.presets import experiment
from hallmhd.probes import inequality_probe, kato_ponce_probe
from hallmhd.runner import NumericsError
from hallmhd.solver3d import make_initial

RUNS = {
    "ext3d-n64": dict(dimension=3.0, formulation="extended", n=64, amplitude=0.1,
                      band_lo=1.0, band_hi=2.0, hall_cfl=0.5, dt=1e-3, t_end=0.01,
                      sample_every=25, snapshot_every=0.005, seed=11),
    "phys3d-n24-mu-ne-nu": dict(dimension=3.0, n=24, mu=1.0, nu=0.6, amplitude=0.1,
                                t_end=0.03, sample_every=5, snapshot_every=0.015, seed=3),
    "2p5d-n32": dict(dimension=2.5, n=32, t_end=0.2, sample_every=10),
    "2p5d-n16-mu-ne-nu": dict(dimension=2.5, n=16, mu=1.0, nu=0.5, t_end=0.1,
                              sample_every=3, seed=4),
    "2p5d-n16-single-mode": dict(dimension=2.5, n=16, init_kind="single_mode_b3",
                                 t_end=0.05, sample_every=1),
    "2p5d-n128-every-step": dict(dimension=2.5, n=128, t_end=0.005, sample_every=1),
    "budgets-n16": dict(dimension=3.0, formulation="extended", n=16, t_end=0.05,
                        sample_every=5, compute_budgets=True),
    "budgets-n16-every-step": dict(dimension=3.0, formulation="extended", n=16,
                                   t_end=0.01, sample_every=1, compute_budgets=True,
                                   budget_s=0.5),
    # two and three dissipation samples: the integrator's trapezoid branch
    # and its shortest Simpson series
    "phys3d-n16-one-step": dict(dimension=3.0, n=16, t_end=1e-3, sample_every=1, seed=2),
    "2p5d-n16-two-steps": dict(dimension=2.5, n=16, t_end=2e-3, sample_every=1, seed=6),
}

EXPERIMENTS = {
    "weak-strong-3d": dict(n=32, t_end=0.04),
    "small-data-2p5d": dict(t_end=0.15),
    "freq-split-3d": dict(n=16, t_end=0.1),
    "threshold-bisect": dict(n=16),
    "fujita-kato-3d": dict(n=16, t_end=0.05),
    "decay-3d": dict(n=16, t_end=0.1),
    "small-B-2p5d": dict(n=32, t_end=0.05),
}


def blowup_config() -> RunConfig:
    """Extended N = 16 data at amplitude 1 with dt at 0.98 of the t = 0
    step guard, 200 steps: a step guard fails mid-run, after a sample."""
    grid, params = GridSpec.create(3, 16), PhysicalParams(0.02, 0.02, 1.0)
    u0, B0 = make_initial(grid, "random_band", 1.0, seed=4)
    dt = 0.98 * required_dt(grid, params, StepControl(dt=1, t_end=1),
                            float(np.abs(u0.to_physical()).max()),
                            float(np.abs(B0.to_physical()).max()))
    return RunConfig(dimension=3.0, formulation="extended", n=16, mu=0.02, nu=0.02,
                     amplitude=1.0, seed=4, dt=dt, t_end=200 * dt, sample_every=5)


def _captured(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return f"{buf.getvalue()}exit {code}\n"


def produce(out: Path) -> None:
    for name, kw in RUNS.items():
        run(RunConfig(**kw), out_dir=out / name)
    try:
        run(blowup_config(), out_dir=out / "ext3d-n16-blowup")
    except NumericsError:
        pass
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
