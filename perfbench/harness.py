"""One benchmark process for one workload; started by perfbench/run.py.

Modes:
  probe  set the workload up, report the set-up time, exit;
  run    set up, then measure end-to-end figures for ``--seconds``;
  trace  set up, then alternate untraced and traced passes over one fixed
         unit of work, for ``--seconds``, and report per-layer metrics.

A unit of work is one NES generation (desk workloads) or one
bench.evaluate_suite call (wide workload). The last stdout line is one JSON
object. Only l3rs's public entry points are driven: cli.load_config,
meta.pretrain_checkpoint, meta.meta_train (its on_generation hook timestamps
generations), bench.evaluate_suite and the bench.*_handle constructors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from l3rs import bench, cli, meta

import tracer

# Generations in the fixed unit of desk work that is traced, and whose psi
# and history digests are compared across worker counts and pinned.
CHECK_GENS = 4
# An episode is one meta_train call that continues the same NES state (as
# --resume does), so its first generation is cold: a fresh evaluator, a new
# pool fork and empty per-worker task caches. Episodes last at least
# EPISODE_MIN_GENS generations and end before a generation whose total K is
# within K_WINDOW of the mean, so that cold generations do typical work and
# first_gen_s does not swing with the K draw.
EPISODE_MIN_GENS = 2
K_WINDOW = 4

DESK_SETS = ["nes.population=16", "nes.meta_batch=4", "nes.generations=1000000"]
WIDE_SETS = ["distribution.hidden=[32,32]", "layout.variant=per_layer_mlp",
             'layout.base_optimizers=["sgd","adam","adamax","lion","lamb","weight_decay"]']
WIDE_K = [25, 100]
WIDE_TASKS_PER_SUITE = 2
WIDE_CHECK_SUITES = 2
WIDE_BASELINES = [(bench.BaselineKind.ADAM_CONST, 1e-2), (bench.BaselineKind.SGD_CONST, 1e-1)]

# sha256 digests at seed 0 (the default): byte identity is the repo's
# contract, so a change that moves any output bit fails the check.
PINNED = {
    "desk": {"psi": "eea549362e2eb45bdc08920cd5095a41ae7a13a862326ebcf9c70969de2f8061",
             "history": "22810aeef6c3c5dd499905ed66be804b7166639dd83f96b823c22d8a4c432b61"},
    "wide": {"report": "ece716ccecbc6ddb4a348b9e28c27e8fbb38e931453eb7b1a98ffd64d9b8feab"},
}

NPROC = len(os.sched_getaffinity(0))
WORKLOADS = {
    "desk-metatrain": ("desk", 1),
    "desk-metatrain-pool": ("desk", NPROC),
    "heldout-evaluate-wide": ("wide", 1),
}
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


class EndEpisode(Exception):
    pass


class EndRun(Exception):
    pass


def sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


def desk_digests(psi: np.ndarray, history) -> dict[str, str]:
    rows = [(h.generation, h.mean_fitness, h.best_fitness, h.alpha, h.sigma) for h in history]
    return {"psi": sha([np.ascontiguousarray(psi, dtype=np.float64).tobytes()]),
            "history": sha(rows)}


def report_digest(reports) -> dict[str, str]:
    return {"report": sha((c.optimizer, c.K, c.task_seeds, c.task_acc, c.task_loss)
                          for r in reports for c in r.cells)}


def tail(values):
    """(value, percentile, samples beyond it): the highest whole percentile
    (nearest rank) that leaves at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, 0
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)
    return xs[rank - 1], p, n - rank


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def pretrain(run, tr=None):
    """The workload's checkpoint; with a tracer, the call is a traced span."""
    args = (run.dist, run.pretrain_steps, run.seed)
    if tr is None:
        return meta.pretrain_checkpoint(*args)
    return tr.traced(tracer.SETUP, lambda: meta.pretrain_checkpoint(*args))


# ---------------------------------------------------------------------------
# desk meta-training


class Desk:
    def __init__(self, seed: int, workers: int, tr=None):
        self.run = cli.load_config(None, [f"seed={seed}"] + DESK_SETS, workers=workers)
        self.layout = self.run.layout_for(self.run.dist)
        self.ckpt = pretrain(self.run, tr)
        self.psi0 = meta.initial_psi(self.run.nes, self.layout)
        self.workers = workers
        self.runs_per_gen = self.run.nes.population * self.run.nes.meta_batch
        self._ks: dict[int, list[int]] = {}

    def ks(self, gen: int) -> list[int]:
        """Horizons of the generation's shared tasks (each candidate runs all)."""
        if gen not in self._ks:
            self._ks[gen] = [meta.make_task(self.run.dist, s, split="metatrain").K
                             for s in meta.generation_task_seeds(self.run.nes, gen)]
        return self._ks[gen]

    def typical(self, gen: int) -> bool:
        d = self.run.dist
        mean = self.run.nes.meta_batch * (d.k_min + d.k_max) / 2
        return abs(sum(self.ks(gen)) - mean) <= K_WINDOW

    def steps(self, gens) -> int:
        return self.run.nes.population * sum(sum(self.ks(g)) for g in gens)

    def train(self, state, workers=None, on_generation=None, generations=None):
        cfg = self.run.nes
        if generations is not None:
            cfg = dataclasses.replace(cfg, generations=generations)
        return meta.meta_train(cfg, self.run.dist, self.layout, init_from=self.ckpt,
                               workers=workers or self.workers, state=state,
                               renormalize=self.run.renormalize,
                               on_generation=on_generation)

    def unit(self, workers=None):
        """The fixed unit of work: the first CHECK_GENS generations."""
        return self.train(meta.NesState(psi=self.psi0.copy()), workers,
                          generations=CHECK_GENS)

    def first_generation(self):
        """(alpha, signed perturbations, candidates, task seeds) of generation 1."""
        cfg = self.run.nes
        alpha, sigma = cfg.schedule(0)
        signed = meta.generation_perturbations(cfg, 0, len(self.psi0))
        return alpha, signed, self.psi0[None, :] + sigma * signed, \
            meta.generation_task_seeds(cfg, 0)

    def job_bytes(self) -> int:
        """Pickled size of one generation's candidate jobs, as the pool sends them."""
        _, _, cands, seeds = self.first_generation()
        return sum(len(pickle.dumps((i, c, seeds))) for i, c in enumerate(cands))

    def recompute_first_generation(self) -> tuple[np.ndarray, float, float]:
        """Generation 1 rebuilt from bench handles, one candidate at a time."""
        alpha, signed, cands, seeds = self.first_generation()
        tasks = [meta.make_task(self.run.dist, s, split="metatrain", init_from=self.ckpt)
                 for s in seeds]
        fits = np.array([
            -float(np.mean([h.run(t).meta_loss for t in tasks]))
            for h in (bench.controller_handle(c, self.layout, renormalize=self.run.renormalize)
                      for c in cands)])
        psi1 = meta.nes_update(self.psi0, signed, fits, alpha)
        return psi1, float(fits.mean()), float(fits.max())

    def measure(self, seconds: float, seed: int) -> dict:
        state = meta.NesState(psi=self.psi0.copy())
        gens: list[tuple[int, float, bool]] = []  # (generation index, seconds, cold)
        bad_gens: set[int] = set()
        seen = {}
        clock = time.perf_counter
        t0 = clock()
        while True:
            episode = {"start": clock(), "n": 0}

            def hook(st):
                enter = clock()
                g = st.generation - 1
                gens.append((g, enter - episode["start"], episode["n"] == 0))
                episode["n"] += 1
                last = st.history[-1]
                if not (np.all(np.isfinite(st.psi)) and np.isfinite(last.mean_fitness)
                        and np.isfinite(last.best_fitness)):
                    bad_gens.add(g)
                if st.generation == 1:
                    seen["psi1"] = st.psi.copy()
                    seen["fit1"] = (last.mean_fitness, last.best_fitness)
                if st.generation == CHECK_GENS:
                    seen["digests"] = desk_digests(st.psi, st.history)
                if enter - t0 >= seconds and st.generation >= CHECK_GENS:
                    raise EndRun
                if episode["n"] >= EPISODE_MIN_GENS and self.typical(st.generation):
                    raise EndEpisode
                episode["start"] = clock()

            try:
                self.train(state, on_generation=hook)
            except EndEpisode:
                continue
            except EndRun:
                break
        rss = peak_rss_mb()

        warm = [(g, s) for g, s, cold in gens if not cold]
        warm_s = sum(s for _, s in warm)
        tail_s, tail_p, tail_n = tail([s for _, s in warm])

        psi1, mean1, best1 = self.recompute_first_generation()
        checks = {"generation 1 equals a candidate-by-candidate recomputation":
                  psi1.tobytes() == seen["psi1"].tobytes() and (mean1, best1) == seen["fit1"]}
        if self.workers > 1:
            checks[f"workers=1 digests equal workers={self.workers} digests"] = (
                desk_digests(*self.unit(1)) == seen["digests"])
        if seed == 0:
            checks["digests equal the pinned seed-0 digests"] = seen["digests"] == PINNED["desk"]
        if not all(checks.values()):
            bad_gens |= set(range(CHECK_GENS))
        attempted = len(gens) * self.runs_per_gen
        return {
            "attempted": attempted,
            "failed": min(attempted, len(bad_gens) * self.runs_per_gen),
            "checks": checks,
            "cold_s": [s for g, s, cold in gens if cold and self.typical(g)]
            or [s for _, s, cold in gens if cold],
            "values": {
                "inner_steps_per_s": self.steps(g for g, _ in warm) / warm_s,
                "gen_s_p50": float(np.median([s for _, s in warm])),
                "gen_s_tail": tail_s,
                "eval_runs_per_s": len(warm) * self.runs_per_gen / warm_s,
                "peak_rss_mb": rss,
            },
            "notes": {
                "generations": len(gens), "warm_generations": len(warm),
                "gen_s_tail_percentile": tail_p, "gen_s_tail_samples_beyond": tail_n,
                "digests": seen["digests"],
            },
        }


# ---------------------------------------------------------------------------
# wide held-out evaluation


class Wide:
    def __init__(self, seed: int, tr=None):
        self.run = cli.load_config(None, [f"seed={seed}"] + WIDE_SETS)
        self.layout = self.run.layout_for(self.run.dist)
        self.ckpt = pretrain(self.run, tr)
        self.psi0 = meta.initial_psi(self.run.nes, self.layout)
        self.seed = seed
        n_handles = 1 + len(WIDE_BASELINES)
        self.runs_per_suite = n_handles * WIDE_TASKS_PER_SUITE * len(WIDE_K)
        self.steps_per_suite = n_handles * WIDE_TASKS_PER_SUITE * sum(WIDE_K)

    def handles(self) -> list[bench.OptimizerHandle]:
        handles = [bench.controller_handle(self.psi0, self.layout, label="l3rs-init",
                                           renormalize=self.run.renormalize)]
        return handles + [bench.baseline_handle(bench.BaselineSpec(kind, lr0=lr))
                          for kind, lr in WIDE_BASELINES]

    def suite(self, index: int, handles) -> bench.EvalReport:
        return bench.evaluate_suite(handles, self.run.dist, WIDE_TASKS_PER_SUITE,
                                    WIDE_K, eval_seed=(self.seed << 20) + index,
                                    split="metatest", init_from=self.ckpt)

    def unit(self):
        handles = self.handles()
        return [self.suite(i, handles) for i in range(WIDE_CHECK_SUITES)]

    def bad_runs(self, report: bench.EvalReport) -> int:
        bad = 0
        for c in report.cells:
            if c.task_seeds != report.cells[0].task_seeds:
                bad += len(c.task_loss)
                continue
            for acc, loss in zip(c.task_acc, c.task_loss):
                bad += not (0.0 <= acc <= 1.0 and np.isfinite(loss) and loss >= 0.0)
        return bad

    def recompute_first_task(self, report: bench.EvalReport) -> bool:
        """Every cell's first task, re-run outside evaluate_suite."""
        seed = report.cells[0].task_seeds[0]
        for cell in report.cells:
            handle = next(h for h in self.handles() if h.label == cell.optimizer)
            task = meta.make_task(self.run.dist, seed, split="metatest",
                                  init_from=self.ckpt, k_override=cell.K)
            res = handle.run(task)
            if (res.eval_accuracy, res.meta_loss) != (cell.task_acc[0], cell.task_loss[0]):
                return False
        return True

    def measure(self, seconds: float, seed: int) -> dict:
        """Episodes of EPISODE_MIN_GENS suites, each with freshly built handles."""
        clock = time.perf_counter
        t0 = clock()
        times, reports = [], []
        bad = 0
        while clock() - t0 < seconds or len(times) <= WIDE_CHECK_SUITES:
            start = clock()
            handles = self.handles()
            for _ in range(EPISODE_MIN_GENS):
                report = self.suite(len(times), handles)
                end = clock()
                times.append(end - start)
                start = end
                bad += self.bad_runs(report)
                if len(reports) < WIDE_CHECK_SUITES:
                    reports.append(report)
        rss = peak_rss_mb()

        digest = report_digest(reports)
        checks = {"first task of every cell equals a direct handle.run":
                  self.recompute_first_task(reports[0])}
        if seed == 0:
            checks["report digest equals the pinned seed-0 digest"] = digest == PINNED["wide"]
        if not all(checks.values()):
            bad += WIDE_CHECK_SUITES * self.runs_per_suite
        warm = [t for i, t in enumerate(times) if i % EPISODE_MIN_GENS]
        tail_s, tail_p, tail_n = tail(warm)
        attempted = len(times) * self.runs_per_suite
        return {
            "attempted": attempted,
            "failed": min(attempted, bad),
            "checks": checks,
            "cold_s": times[::EPISODE_MIN_GENS],
            "values": {
                "inner_steps_per_s": len(warm) * self.steps_per_suite / sum(warm),
                "gen_s_p50": float(np.median(warm)),
                "gen_s_tail": tail_s,
                "eval_runs_per_s": len(warm) * self.runs_per_suite / sum(warm),
                "peak_rss_mb": rss,
            },
            "notes": {"suites": len(times), "warm_suites": len(warm),
                      "gen_s_tail_percentile": tail_p,
                      "gen_s_tail_samples_beyond": tail_n, "digests": digest},
        }


# ---------------------------------------------------------------------------
# traced run


def trace_workload(kind: str, workers: int, seconds: float, seed: int) -> dict:
    tr = tracer.Tracer()
    if kind == "desk":
        w = Desk(seed, workers, tr)
        unit = w.unit
        digest = lambda out: desk_digests(*out)  # noqa: E731
        steps = w.steps(range(CHECK_GENS))
        runs = CHECK_GENS * w.runs_per_gen
        # pool workers' spans never reach this process: keep the parent's only
        table = tracer.PARENT_SIDE if workers > 1 else tracer.CHILD_SIDE + tracer.PARENT_SIDE
        pinned = PINNED["desk"]
        job_bytes = w.job_bytes()
    else:
        w = Wide(seed, tr)
        unit = w.unit
        digest = report_digest
        steps = WIDE_CHECK_SUITES * w.steps_per_suite
        runs = WIDE_CHECK_SUITES * w.runs_per_suite
        table = tracer.CHILD_SIDE
        pinned = PINNED["wide"]
        job_bytes = 0
    setup_counts = np.bincount(tr.arrays()[0], minlength=len(tracer.NAMES))

    clock = time.perf_counter
    t0 = clock()
    rates = {"untraced": [], "traced": []}
    digests, pass_counts = [], []
    while len(rates["traced"]) < 2 or clock() - t0 < seconds:
        order = ("untraced", "traced") if len(rates["traced"]) % 2 == 0 else ("traced", "untraced")
        for mode in order:
            mark = len(tr.names)
            start = clock()
            out = tr.traced(table, unit) if mode == "traced" else unit()
            rates[mode].append(steps / (clock() - start))
            digests.append(digest(out))
            if mode == "traced":
                pass_counts.append(np.bincount(tr.arrays()[0][mark:],
                                               minlength=len(tracer.NAMES)))
    OUT_DIR.mkdir(exist_ok=True)
    tr.save(OUT_DIR / f"spans_{kind}_w{workers}.npz")

    checks = {
        "traced and untraced passes give identical digests": all(d == digests[0] for d in digests),
        "call counts repeat exactly in every traced pass":
            all(np.array_equal(c, pass_counts[0]) for c in pass_counts),
    }
    if seed == 0:
        checks["digests equal the pinned seed-0 digests"] = digests[0] == pinned
    counts = dict(zip(tracer.NAMES, (pass_counts[0] + setup_counts).tolist()))
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, s in tr.summary().items():
        put(f"{name}.calls", counts[name], "count")
        put(f"{name}.self_us", s["self_us"], "us")
        put(f"{name}.share", s["share"], "ratio")
    used = counts["meta.inner_loop_eval"]
    put("meta.task_cache_ratio", counts["meta.make_task"] / used if used else 0.0, "ratio")
    put("meta.pool_job_bytes", job_bytes, "B")
    put("meta.inner_loop_eval.diverged_frac", tr.diverged / tr.runs if tr.runs else 0.0,
        "ratio")
    untraced = float(np.median(rates["untraced"]))
    traced = float(np.median(rates["traced"]))
    put("trace.untraced_inner_steps_per_s", untraced, "steps/s")
    put("trace.traced_inner_steps_per_s", traced, "steps/s")
    put("trace.overhead_frac", untraced / traced - 1.0, "ratio")
    passes = len(digests)
    return {
        "attempted": passes * runs,
        "failed": 0 if all(checks.values()) else passes * runs,
        "checks": checks,
        "metrics": metrics,
        "notes": {"passes": passes, "digests": digests[0]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("probe", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t-start", type=float, required=True,
                    help="time.monotonic() when the launcher started this process")
    args = ap.parse_args(argv)
    kind, workers = WORKLOADS[args.workload]

    if args.mode == "trace":
        out = trace_workload(kind, workers, args.seconds, args.seed)
    else:
        w = Desk(args.seed, workers) if kind == "desk" else Wide(args.seed)
        setup_s = time.monotonic() - args.t_start
        out = {} if args.mode == "probe" else w.measure(args.seconds, args.seed)
        out["setup_s"] = setup_s
    out["info"] = machine_info()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
