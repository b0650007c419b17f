"""The benchmark's four workloads.

Each workload loads a fresh copy of ``shellorder`` and builds its inputs
(together the set-up), then runs a list of calls: suite calls for the sweep
workloads, ``cli.main`` calls for ``large-inputs``.  Every call is checked
against tallies recorded with the benchmark, and in a traced run the span
counts are checked against the counts the workload implies.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import math
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Optional

import inputs

EXHAUSTIVE = {"n": 5, "k": 3, "max_facets": 5}
EXHAUSTIVE_SEQUENCES = 15_250
RANDOM_SHAPE = {"n": 6, "k": 3, "max_facets": 10}
RANDOM_SAMPLES = 2_000
# The corpus checks of criteria 05, 06, 07 and 11, as suite calls, with
# the number of checks each makes per sequence.
CORPUS_SUITES = (
    ("promotion-shell", 1),
    ("evacuation-shell", 2),
    ("eq2-oracle", 1),
    ("appending-swap", 1),
)
# suite, n, k, instances, checks: recorded at the seed commit, where
# every sweep passes.
SUBSET_SWEEPS = (
    ("extensions-shell", 6, 2, 32_768, 58_630),
    ("barycentric-coxeter", 5, 2, 1_024, 1_023),
    ("conf-ideals-flagshell", 4, 2, 4_096, 1_155),
    ("hasse-vs-dual", 6, 2, 121, 2_779),
    ("remark-bruhat-graph", 6, 2, 32_768, 860_160),
)
POOL_JOBS = 2


def suite_labels() -> list[str]:
    """Every suite-call label any workload uses, for ``suites.<label>.wall_s``."""
    labels = [f"{s}.{c}" for c in ("exhaustive", "random") for s, _ in CORPUS_SUITES]
    return labels + [s for s, *_ in SUBSET_SWEEPS]


@dataclass
class Call:
    """One timed call.  ``run`` returns the outcome that the gate and the
    traced/untraced comparison look at; ``judge`` returns the number of
    failed operations in it."""

    label: str
    run: Callable[[], tuple]
    attempted: int
    judge: Callable[[tuple], int]
    after: Optional[Callable[[tuple], None]] = None


class Loaded:
    """A fresh import of the package: new modules, so empty corpus caches."""

    def __init__(self) -> None:
        self.cli = importlib.import_module("shellorder.cli")
        self.suites = sys.modules["shellorder.suites"]


def _forget_package() -> None:
    for name in [m for m in sys.modules if m == "shellorder" or m.startswith("shellorder.")]:
        del sys.modules[name]
    gc.collect()


def _suite_judge(instances: int, checks: int) -> Callable[[tuple], int]:
    def judge(outcome: tuple) -> int:
        got_instances, got_checks, failures, counterexample = outcome
        tally_ok = (got_instances, got_checks, counterexample) == (instances, checks, None)
        return failures + (0 if tally_ok else 1)

    return judge


def _report(report) -> tuple:
    return report.instances, report.checks, report.failures, report.first_counterexample


class Workload:
    name = ""
    jobs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.so: Optional[Loaded] = None

    def setup(self, before_build: Callable[[], None] = lambda: None) -> float:
        """Import the package afresh and build the inputs; returns the
        seconds taken.  Dropping the previous copy happens untimed."""
        self.so = None
        self.drop_inputs()
        _forget_package()
        started = time.perf_counter()
        self.so = Loaded()
        before_build()
        self.build()
        return time.perf_counter() - started

    def build(self) -> None:
        """Build the inputs; the default workload has none beyond the import."""

    def drop_inputs(self) -> None:
        pass

    def calls(self, jobs: int) -> list[Call]:
        raise NotImplementedError

    def sweep_calls(self, sweeps, jobs: int) -> list[Call]:
        out = []
        for suite, n, k, instances, checks in sweeps:
            def run(suite=suite, n=n, k=k):
                return _report(self.so.suites.SUITES[suite](n, k, jobs=jobs))

            out.append(Call(suite, run, checks, _suite_judge(instances, checks)))
        return out

    def expected_counts(self, truths) -> dict[str, int]:
        """Span counts the traced phase must show (set-up plus one pass)."""
        return {}

    def close(self) -> None:
        pass


class Corpus(Workload):
    name = "corpus"

    def build(self) -> None:
        suites = self.so.suites
        self.exhaustive = suites.exhaustive_corpus(**EXHAUSTIVE)
        self.random = suites.random_corpus(
            RANDOM_SHAPE["n"], RANDOM_SHAPE["k"], RANDOM_SAMPLES, self.seed,
            RANDOM_SHAPE["max_facets"],
        )

    def _corpus_calls(self, corpora, jobs: int) -> list[Call]:
        out = []
        for corpus, kwargs, size in corpora:
            for suite, per_sequence in CORPUS_SUITES:
                def run(suite=suite, kwargs=kwargs):
                    suites = self.so.suites
                    if suite == "appending-swap":
                        report = suites.sweep_shelling_corpus(
                            suite, ("appending-swap",), jobs=jobs, **kwargs)
                    else:
                        report = suites.SUITES[suite](jobs=jobs, **kwargs)
                    return _report(report)

                checks = size * per_sequence
                out.append(Call(f"{suite}.{corpus}", run, checks, _suite_judge(size, checks)))
        return out

    def drop_inputs(self) -> None:
        self.exhaustive = self.random = None

    def corpora(self):
        random_kwargs = dict(RANDOM_SHAPE, samples=RANDOM_SAMPLES, seed=self.seed)
        return [
            ("exhaustive", EXHAUSTIVE, EXHAUSTIVE_SEQUENCES),
            ("random", random_kwargs, RANDOM_SAMPLES),
        ]

    def calls(self, jobs: int) -> list[Call]:
        return self._corpus_calls(self.corpora(), jobs)

    def sequences(self):
        return list(self.exhaustive) + list(self.random)

    def expected_counts(self, truths) -> dict[str, int]:
        return _corpus_counts(self.sequences())


def _corpus_counts(sequences) -> dict[str, int]:
    """Each sequence meets promotion-shell (1 promote), evacuation-shell
    (3 evacuations of length h, each h - 1 r-promotions), eq2-oracle (1
    promote plus h - 1 elementary moves) and appending-swap (one shelling
    check when the last two facets are not adjacent)."""
    n = len(sequences)
    moves = sum(len(s) - 1 for s in sequences)
    swaps = sum(
        1 for s in sequences
        if len(s) >= 3 and (s[-2].mask & s[-1].mask).bit_count() < len(s[0]) - 1
    )
    promotes = 3 * moves + 2 * n
    graphs = promotes + moves
    counts = {
        "promotion.evacuate.calls": 3 * n,
        "promotion.r_promote.calls": 3 * moves,
        "promotion.promote.calls": promotes,
        "promotion.promote_via_moves.calls": n,
        "promotion.elementary_move.calls": moves,
        "promotion.graph_of.calls": graphs,
        "promotion.track.calls": promotes,
        "shelling.dual_graph.calls": graphs,
        "core.labeled_graph.calls": graphs,
        "shelling.is_shelling_order.calls": 2 * n + swaps,
    }
    for check in ("promotion", "evacuation", "involution", "eq2", "appending-swap"):
        counts[f"suites.check.{check}.calls"] = n
    return counts


def _extension_counts(truths, extra_matroid_checks: int = 0) -> dict[str, int]:
    """extensions-shell (6, 2) tests quasi-exchange on all 2^15 - 1
    nonempty families; each family without it is tested for the matroid
    and order-ideal properties."""
    families = 2 ** 15 - 1
    without = families - truths["matroid.has_quasi_exchange"]
    return {
        "matroid.has_quasi_exchange.calls": families,
        "bruhat.is_order_ideal.calls": without,
        "matroid.is_matroid.calls": without + extra_matroid_checks,
    }


class SubsetSweeps(Workload):
    name = "subset-sweeps"

    def calls(self, jobs: int) -> list[Call]:
        sweeps = list(SUBSET_SWEEPS)
        Random(self.seed).shuffle(sweeps)  # the sweeps are exhaustive; the seed orders them
        return self.sweep_calls(sweeps, jobs)

    def expected_counts(self, truths) -> dict[str, int]:
        families_52 = 2 ** 10 - 1  # barycentric-coxeter (5, 2)
        hasse_supports, hasse_extensions = 121, 2_779
        counts = _extension_counts(truths, extra_matroid_checks=families_52)
        counts.update({
            "matroid.is_coxeter_matroid.calls": families_52,
            "subdivision.barycentric.calls": families_52,
            # one per support, one per Hasse promotion of each extension
            "bruhat.induced_covers.calls": hasse_supports + hasse_extensions,
            "promotion.promote.calls": 2 * hasse_extensions,
            "promotion.graph_of.calls": 2 * hasse_extensions,
            "shelling.dual_graph.calls": hasse_extensions,
            "promotion.evacuate.calls": 0,
        })
        return counts


class Pool(Corpus):
    name = "pool"
    jobs = POOL_JOBS

    def build(self) -> None:
        self.exhaustive = self.so.suites.exhaustive_corpus(**EXHAUSTIVE)
        self.random = ()

    def calls(self, jobs: int) -> list[Call]:
        sweeps = [s for s in SUBSET_SWEEPS if s[0] == "extensions-shell"]
        return self._corpus_calls(self.corpora()[:1], jobs) + self.sweep_calls(sweeps, jobs)

    def expected_counts(self, truths) -> dict[str, int]:
        counts = _corpus_counts(self.sequences())
        counts.update(_extension_counts(truths))
        return counts


class LargeInputs(Workload):
    name = "large-inputs"

    def build(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.plan = inputs.build_large_inputs(self.seed, self.workdir)

    def drop_inputs(self) -> None:
        self.plan = None

    def calls(self, jobs: int) -> list[Call]:
        out = []
        for spec in self.plan:
            def run(spec=spec):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.so.cli.main(list(spec.argv))
                return code, stdout.getvalue()

            def judge(outcome, spec=spec):
                code, text = outcome
                if code != spec.expect_exit:
                    return 1
                if spec.expect_text is not None:
                    return int(text != spec.expect_text)
                return int(not spec.check(text))

            def after(outcome, spec=spec):
                if spec.feeds:
                    Path(spec.feeds).write_text(outcome[1], encoding="utf-8")

            out.append(Call(spec.kind, run, 1, judge, after))
        return out

    def expected_counts(self, truths) -> dict[str, int]:
        calls = self.plan

        def count(*kinds):
            return sum(1 for c in calls if c.kind in kinds)

        evacuations = sum(c.evacuate_length - 1 for c in calls if c.kind == "evacuate")
        return {
            "cli.main.calls": len(calls),
            "cli.parse_input.calls": len(calls),
            "cli.serialize.calls": count("promote-dual", "promote-hasse", "evacuate",
                                         "find-shelling", "barycentric"),
            "promotion.evacuate.calls": count("evacuate"),
            "promotion.r_promote.calls": evacuations,
            "promotion.promote.calls": evacuations + count("promote-dual", "promote-hasse"),
            "bruhat.induced_covers.calls": count("promote-hasse"),
            "shelling.is_shelling_order.calls": count("check-shelling"),
            "shelling.find_shelling_order.calls": count("find-shelling"),
            "bruhat.is_order_ideal.calls": count("check-order-ideal"),
            "matroid.is_matroid.calls": count("check-matroid"),
            "subdivision.barycentric.calls": count("barycentric"),
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Corpus, SubsetSweeps, LargeInputs, Pool)}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]
