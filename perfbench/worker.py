"""One benchmark worker process: set up, signal ready, run timed ops.

Started by run.py, never by hand.  The worker builds its workload's inputs,
runs one untimed warm-up op (in-process workloads), prints ``ready`` and then
runs ops until its share of the run's seconds is spent and it has done at
least ``--min-ops``.  In a traced run, ops alternate untraced and traced on
the same input slot, so the pair gives the tracing overhead.  The worker
writes its samples to ``--result`` and its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

IN_PROCESS = {"dbar-n512": (workloads.DbarN512, 512, 64),
              "family-strong-n256": (workloads.FamilyStrongN256, 256, 128)}


def _cpu(children: bool) -> float:
    if not children:
        return time.process_time()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _failure(exc: BaseException) -> str:
    if isinstance(exc, workloads.OpFailed):
        return str(exc)
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Worker:
    def __init__(self, args):
        self.args = args
        self.tracer = tracer.Tracer() if args.trace else None
        self.ops = []
        self.layer_ops = []
        self.cli = args.workload == "cli-shipped"
        start = time.perf_counter()
        if self.cli:
            area = Path(args.area)
            self.work = workloads.CliShipped(args.seed, Path(args.root), area,
                                             args.smoke, args.inject_failure)
        else:
            cls, resolution, smoke_resolution = IN_PROCESS[args.workload]
            self.work = cls(args.seed, smoke_resolution if args.smoke else resolution,
                            args.inject_failure)
        self.fieldgen_s = time.perf_counter() - start
        if not self.cli:
            try:
                self.work.run(args.index % self.work.slots)
            except Exception:
                pass  # the timed ops record any failure of this input

    def _traced(self, k: int):
        """Whether op k is traced, and the input slot it uses."""
        if self.args.trace:
            return k % 2 == 1, (self.args.index + k // 2) % self.work.slots
        return False, (self.args.index + k) % self.work.slots

    def run(self) -> None:
        start = time.perf_counter()
        deadline = start + self.args.seconds
        k = 0
        while self.args.max_ops is None or k < self.args.max_ops:
            now = time.perf_counter()
            # start another op only if at least half of it fits the slice
            if k >= self.args.min_ops and deadline - now < 0.5 * (now - start) / k:
                break
            traced, slot = self._traced(k)
            if self.cli:
                self._cli_op(k, traced)
            else:
                self._in_process_op(k, slot, traced)
            k += 1

    def _record(self, k, slot, traced, wall, cpu, error):
        self.ops.append({"op": k, "slot": slot, "traced": traced, "wall_s": wall,
                         "cpu_s": cpu, "ok": error is None, "error": error})

    def _in_process_op(self, k, slot, traced):
        t = self.tracer
        if traced:
            uninstall = tracer.install(t)
            t.begin_op(k)
        error = None
        cpu0, t0 = _cpu(False), time.perf_counter()
        try:
            self.work.run(slot)
        except Exception as exc:  # a failed op is recorded, never raised
            error = _failure(exc)
        t1, cpu1 = time.perf_counter(), _cpu(False)
        if traced:
            uninstall()
            t.begin_op(None)
            spans = [s for s in t.spans if s[5] == k]
            summary = tracer.summarize(spans, t.field_inits.get(k, 0), (t0, t1))
            self.layer_ops.append({"op": k, "slot": slot, "wall_s": t1 - t0,
                                   "summary": summary})
        self._record(k, slot, traced, t1 - t0, cpu1 - cpu0, error)

    def _cli_op(self, k, traced):
        work = self.work
        tag = f"w{self.args.index}-op{k}"
        trace_dir = None
        if traced:
            trace_dir = Path(self.args.area) / f"{tag}-trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
        cpu0, t0 = _cpu(True), time.perf_counter()
        runs = work.run_cycle(tag, trace_dir)
        t1, cpu1 = time.perf_counter(), _cpu(True)
        error = None
        if traced:
            uninstall = tracer.install(self.tracer)
            self.tracer.begin_op(k)
        try:
            work.check_cycle(tag, runs, record_walls=not traced)
        except Exception as exc:  # a failed op is recorded, never raised
            error = _failure(exc)
        if traced:
            uninstall()
            self.tracer.begin_op(None)
            spans = [s for s in self.tracer.spans if s[5] == k]
            summary = tracer.summarize(spans, self.tracer.field_inits.get(k, 0),
                                       (t0, t1))
            immersions = 0
            for command in workloads.COMMANDS:
                path = trace_dir / f"{command}.json"
                if path.exists():
                    child = json.loads(path.read_text())
                    immersions += child["solver.immersion.calls"]
                    summary = tracer.merge(summary, child)
            self.layer_ops.append({
                "op": k, "slot": 0, "wall_s": t1 - t0, "summary": summary,
                "bytes_written": work.bytes_written(tag),
                "immersions_per_command": immersions / len(workloads.COMMANDS)})
        work.discard(tag)
        self._record(k, 0, traced, t1 - t0, cpu1 - cpu0, error)

    def result(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if self.cli
                                   else resource.RUSAGE_SELF)
        out = {"fieldgen_s": self.fieldgen_s, "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "ops": self.ops, "layer_ops": self.layer_ops}
        if self.cli:
            out["command_walls"] = self.work.command_walls
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=sorted(IN_PROCESS) + ["cli-shipped"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--root", required=True)
    p.add_argument("--area", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-failure", action="store_true")
    args = p.parse_args(argv)

    worker = Worker(args)
    print("ready", flush=True)
    worker.run()
    Path(args.result).write_text(json.dumps(worker.result()))
    if worker.tracer is not None:
        worker.tracer.dump(args.result[:-len(".json")] + ".spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
