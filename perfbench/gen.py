"""Seeded input generation for the benchmark.

Every input a workload receives is made here, from the workload seed, before
any timing starts. The benchmark runs this file in a child process so that the
generation work (training the model, calibrating the fleet templates) never
shows in the measured process's peak memory.

    python3 perfbench/gen.py --seed 7 --out DIR --workloads replay fleet

writes into DIR:

- `train.npz`     powers of a non-EV household (the model's training data,
                  also trained on by the traced run)
- `model.npz`     model checkpoint trained on it (`replay`, `fleet`)
- `meter-<i>.csv` labelled households with EV sessions (`replay`)
- `fleet.npz`     per-meter powers and labels on a shared minute grid (`fleet`)
- `engines/`      one engine checkpoint per fleet meter (`fleet`)
- `inputs.json`   sizes, derived seeds and a digest of the input content
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass

import common  # noqa: F401  (before numpy: pins BLAS threads, puts src/ on sys.path)
import numpy as np
from evdetect import (
    EngineConfig,
    Hyper,
    ModelDims,
    OnlineDetector,
    SynthConfig,
    fit_stats,
    load_model,
    normalize,
    save_model,
    sliding_windows,
    synth_household,
    train,
)
from evdetect.data import write_meter_csv

WORKLOADS = ("replay", "fleet")


@dataclass(frozen=True)
class Sizes:
    """Workload input sizes. The defaults are the benchmark's; tests shrink them."""

    train_days: int = 14
    train_stride: int = 3
    model_epochs: int = 3
    model_lr: float = 1e-3
    replay_meters: int = 4
    replay_days: int = 4
    replay_session_rate: float = 1.5
    fleet_meters: int = 128
    fleet_templates: int = 2
    fleet_days: int = 2
    fleet_resume_at: int = 2400  # 16:00 on day 2: the timed ticks cover the evening peak
    calibration_len: int = 1440
    lm: int = 8
    gm: int = 32


def subseed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a fixed key."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def calibration_guard(sizes: Sizes) -> int:
    """Readings before the first detecting-phase reading (warmup + calibration)."""
    return sizes.lm + sizes.gm - 1 + sizes.calibration_len


def _household(days: int, seed: int, session_rate: float, clean_prefix: int = 0):
    """A synthetic household; with `clean_prefix`, the first draw (in a fixed
    sequence of derived seeds) with no EV session in that prefix and at least
    one after it."""
    for attempt in range(1000):
        series = synth_household(SynthConfig(days=days, session_rate=session_rate, seed=subseed(seed, attempt)))
        if not clean_prefix:
            return series
        if series.labels[:clean_prefix].sum() == 0 and series.labels[clean_prefix:].sum() > 0:
            return series
    raise RuntimeError(f"no household with a session-free {clean_prefix}-minute prefix")


def engine_config(sizes: Sizes) -> EngineConfig:
    return EngineConfig(lm=sizes.lm, gm=sizes.gm, calibration_len=sizes.calibration_len)


def _write_train(seed: int, sizes: Sizes, out: str) -> np.ndarray:
    series = _household(sizes.train_days, subseed(seed, 0), 0.0)
    np.savez(os.path.join(out, "train.npz"), powers=series.powers)
    return series.powers


def _write_model(seed: int, sizes: Sizes, out: str, powers: np.ndarray) -> None:
    stats = fit_stats(powers)
    windows = sliding_windows(normalize(powers, stats), sizes.lm, sizes.gm, stride=sizes.train_stride)
    hyper = Hyper(learning_rate=sizes.model_lr, epochs=sizes.model_epochs)
    params, _ = train(
        windows,
        hyper,
        seed=subseed(seed, 1),
        dims=ModelDims(lm=sizes.lm, gm=sizes.gm),
        patience=sizes.model_epochs,
    )
    save_model(os.path.join(out, "model.npz"), params, stats)


def _write_replay(seed: int, sizes: Sizes, out: str) -> None:
    for i in range(sizes.replay_meters):
        series = _household(sizes.replay_days, subseed(seed, 2, i), sizes.replay_session_rate, calibration_guard(sizes))
        write_meter_csv(os.path.join(out, f"meter-{i}.csv"), series)


def _write_fleet(seed: int, sizes: Sizes, out: str) -> None:
    """Meters on one minute grid; each resumes from a copy of a template engine
    checkpoint calibrated on one of the first `fleet_templates` households."""
    resume_at = sizes.fleet_resume_at
    if resume_at <= calibration_guard(sizes):
        raise ValueError("fleet meters must resume after calibration")
    households = [
        _household(
            sizes.fleet_days,
            subseed(seed, 3, i),
            SynthConfig().session_rate,
            resume_at if i < sizes.fleet_templates else 0,
        )
        for i in range(sizes.fleet_meters)
    ]
    np.savez(
        os.path.join(out, "fleet.npz"),
        powers=np.stack([h.powers[resume_at:] for h in households]),
        labels=np.stack([h.labels[resume_at:] for h in households]).astype(np.int8),
        start=np.array(households[0].timestamps[resume_at].isoformat()),
    )

    params, stats = load_model(os.path.join(out, "model.npz"))
    engines = os.path.join(out, "engines")
    os.makedirs(engines)
    templates = []
    for j in range(sizes.fleet_templates):
        det = OnlineDetector(params, stats, engine_config(sizes))
        for reading in households[j].iter_readings():
            if det.stream.total_seen == resume_at:
                break
            det.step(reading)
        path = os.path.join(engines, f"meter-{j:04d}.npz")
        det.save(path)
        templates.append(path)
    for i in range(sizes.fleet_templates, sizes.fleet_meters):
        shutil.copyfile(templates[i % sizes.fleet_templates], os.path.join(engines, f"meter-{i:04d}.npz"))


def content_digest(out: str) -> str:
    """SHA-256 over the input content: raw CSV bytes and every npz array's
    bytes, in name order. Zip member timestamps in npz files are excluded."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            if name == "inputs.json":
                continue
            h.update(rel.encode())
            if name.endswith(".npz"):
                with np.load(path) as npz:
                    for key in sorted(npz.files):
                        arr = npz[key]
                        h.update(key.encode())
                        h.update(str(arr.dtype).encode())
                        h.update(repr(arr.shape).encode())
                        h.update(arr.tobytes())
            else:
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def generate(seed: int, out: str, workloads, sizes: Sizes = Sizes()) -> dict:
    """Write the inputs of `workloads` for `seed` into the empty directory `out`."""
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        raise ValueError(f"unknown workloads {sorted(unknown)}")
    powers = _write_train(seed, sizes, out)
    _write_model(seed, sizes, out, powers)
    if "replay" in workloads:
        _write_replay(seed, sizes, out)
    if "fleet" in workloads:
        _write_fleet(seed, sizes, out)
    info = {
        "seed": seed,
        "workloads": sorted(workloads),
        "sizes": asdict(sizes),
        "derived_seeds": {"train": subseed(seed, 0), "model": subseed(seed, 1)},
        "digest": content_digest(out),
    }
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, required=True)
    args = ap.parse_args(argv)
    generate(args.seed, args.out, args.workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
