"""Bytecodes executed per op of the benchmark's workloads, in total and per
layer.

For each of the workloads ``verify-suite`` and ``diagram-stream`` in
``perfbench/workloads.py`` (imported unchanged), the script runs
``setup(1)`` untraced, then the workload's ``count_ops`` ops under
``sys.settrace`` with opcode events on, and counts every bytecode that a
Python frame executes.  A layer's count is inclusive: it counts the
bytecodes of its functions and of everything they call, once, however
deeply the layer's functions nest.  ``LAYERS`` names the functions of each
layer.  The counts are deterministic, so two runs of one checkout print the
same numbers; they are comparable only within one Python version, whose
bytecode they count, and they do not weigh work done in C, so a speed-up
still needs timed runs of the benchmark.

    python tests/opcount.py                    # counts of this checkout
    python tests/opcount.py --against REV      # REV's counts, then these
    python tests/opcount.py --against REV --write BENCH_<n>.json \\
        [--harness runs.jsonl]

``--against`` clones the repository into a temporary directory, checks out
REV there, copies this script into the clone, and counts both the clone
and this checkout, uncommitted changes included, as
``tests/fingerprint.py --against`` does.  Both sides count each layer with
the union of its functions here and in REV's own ``tests/opcount.py``, so a
function that one side removed from a layer still counts on the other.
With ``--json``, ``--against REV`` only adds REV's layers to this
checkout's count; the clone is counted that way.  ``--write`` saves the counts as
JSON, with this checkout's commit, whether it had uncommitted changes,
REV's commit and the Python version.  ``--harness`` adds the medians and
quartiles of timed benchmark runs: a JSON Lines file in which each line is
``{"side": "parent" or "change", "workload": ..., "seed": ...,
"result": ...}``, the result being the last stdout line of
``perfbench/run.py --trace 0``.  The name does not match ``test_*.py``, so
pytest does not collect it.
"""

import argparse
import ast
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_pair"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (needs the path above)

WORKLOADS = {"verify-suite": workloads.VerifySuite,
             "diagram-stream": workloads.DiagramStream}
SETUP_SEED = 1

#: layer -> the functions it counts, as module.qualname; module.* takes
#: every function of the module
LAYERS = {
    "kernels": ("_kernels_py.*",),
    "Mat3": ("linalg.Mat3.__init__",),
    "random_pair": ("randgen.random_pair", "randgen.random_forward"),
    "forward": ("spectral.forward",),
    "report_margins": ("spectral._Report.determinant",),
    "draw": ("randgen._eigenvalue_triple",
             "randgen._well_conditioned_with_inverse",
             "randgen._random_matrix"),
    "eigenvalues": ("linalg.eigenvalues",),
    "eigenvector": ("linalg.eigenvector",),
    "trace_divisor": ("spectral._coefficients", "spectral._divisor"),
    "in_eigenbasis": ("spectral._in_eigenbasis",),
    "normalize": ("spectral._normal_form",),
    "validate": ("spectral.validate_spectral_data", "spectral._validated"),
    "reconstruct": ("reconstruct.reconstruct",),
    "canonical_form": ("reconstruct.canonical_form", "reconstruct._relisted"),
    "swap_spectral": ("gl2z.swap_spectral",),
    "invert_spectral": ("gl2z.invert_spectral",),
    "shear_spectral": ("gl2z.shear_spectral",),
    "record": ("verify.PropertyResult.record",),
}
_LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}


def layers_at(rev: str) -> dict:
    """The ``LAYERS`` of revision ``rev``'s own ``tests/opcount.py``, empty
    where it has none."""
    shown = subprocess.run(["git", "show", f"{rev}:tests/opcount.py"],
                           cwd=ROOT, text=True, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
    if shown.returncode:
        return {}
    for node in ast.parse(shown.stdout).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    return {}


def add_layers(extra: dict) -> None:
    """Count each layer with the union of its functions in ``LAYERS`` and in
    ``extra``; a layer only ``extra`` names is added."""
    for layer, names in extra.items():
        LAYERS[layer] = tuple(dict.fromkeys((*LAYERS.get(layer, ()), *names)))
    _LAYER_OF.update((name, layer) for layer, names in LAYERS.items()
                     for name in names)


def _layer_of(code):
    """The layer that counts the function with ``code``, or None."""
    path = Path(code.co_filename)
    if path.parent != PACKAGE:
        return None
    return (_LAYER_OF.get(f"{path.stem}.{code.co_qualname}")
            or _LAYER_OF.get(f"{path.stem}.*"))


def count_ops(workload, ops: int) -> dict:
    """Bytecodes of ops 0 to ``ops`` - 1 of the set-up ``workload``: the
    total and each layer's inclusive count."""
    total = [0]
    inclusive = dict.fromkeys(LAYERS, 0)
    active = set()
    layers = {}

    def plain(frame, event, arg):
        if event == "opcode":
            total[0] += 1
        return plain

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        if code not in layers:
            layers[code] = _layer_of(code)
        layer = layers[code]
        if layer is None or layer in active:
            return plain
        active.add(layer)
        start = total[0]

        def outermost(frame, event, arg):
            if event == "opcode":
                total[0] += 1
            elif event == "return":
                active.discard(layer)
                inclusive[layer] += total[0] - start
            return outermost

        return outermost

    # the cyclic collector may run another object's finalizer, such as a
    # weak reference's callback, inside any frame, so it waits, after one
    # collection of what is garbage already
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for i in range(ops):
            workload.op(i)
    finally:
        sys.settrace(previous)
        if enabled:
            gc.enable()
    return {"ops": ops, "total": total[0], "layers": inclusive}


def count_workloads() -> dict:
    """Every listed workload set up with ``SETUP_SEED`` and counted over its
    ``count_ops`` ops, with the counts per op."""
    import spectral_pair

    if Path(spectral_pair.__file__).parent != PACKAGE:
        sys.exit(f"error: spectral_pair came from {spectral_pair.__file__}")
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.setup(SETUP_SEED)
        counts = count_ops(workload, workload.count_ops)
        ops = counts["ops"]
        out[name] = {"ops": ops, "total": counts["total"] / ops,
                     "layers": {k: v / ops
                                for k, v in counts["layers"].items()}}
        workload.close()
    return {"python": sys.version.split()[0], "workloads": out}


def print_table(columns: dict) -> None:
    """Bytecodes per op, one column per (label, counts) and workload."""
    heads = [(label, name) for label in columns for name in WORKLOADS]
    print("bytecodes per op  " + "  ".join(
        f"{name + ' ' + label:>26}" for label, name in heads))
    for row in ("total", *LAYERS):
        cells = []
        for label, name in heads:
            counts = columns[label]["workloads"][name]
            value = counts["total"] if row == "total" else counts["layers"][row]
            cells.append(f"{value:>26,.0f}")
        print(f"{row:<17}  " + "  ".join(cells))


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def counts_at(rev: str) -> dict:
    """The counts of revision ``rev``, from a temporary clone, with the
    layers of ``rev`` and of this script."""
    with tempfile.TemporaryDirectory() as tmp:
        clone = Path(tmp) / "checkout"
        # --shared borrows the objects of this repository, so any commit it
        # holds can be checked out, on a branch or not
        git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT),
            str(clone))
        git("checkout", "--quiet", "--detach", rev, cwd=clone)
        script = clone / "tests" / Path(__file__).name
        shutil.copyfile(__file__, script)
        run = subprocess.run([sys.executable, str(script), "--json",
                              "--against", "HEAD"],
                             check=True, text=True, stdout=subprocess.PIPE)
        return json.loads(run.stdout)


def harness_summary(path: str) -> dict:
    """Per workload and end-to-end metric, each side's median and quartiles
    over the runs in the JSON Lines file ``path``, and how many of the
    pairs (one run of each side on one seed) the change won."""
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault(run["workload"], {}).setdefault(
                run["side"], {})[run["seed"]] = run["result"]["metrics"]
    out = {}
    for workload, sides in runs.items():
        seeds = sorted(sides.get("parent", {}).keys()
                       & sides.get("change", {}).keys())
        rows = {}
        for metric, direction in better.items():
            row = {"pairs": len(seeds)}
            for side, metrics in sides.items():
                values = [m[metric]["value"] for m in metrics.values()]
                q1, median, q3 = (statistics.quantiles(values, n=4)
                                  if len(values) > 1 else values * 3)
                row[side] = {"runs": len(values), "median": median,
                             "q1": q1, "q3": q3}
            sign = 1 if direction == "higher" else -1
            row["change_wins"] = sum(
                sign * (sides["change"][s][metric]["value"]
                        - sides["parent"][s][metric]["value"]) > 0
                for s in seeds)
            rows[metric] = row
        out[workload] = rows
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="count revision REV too, from a temporary clone")
    parser.add_argument("--write", metavar="PATH",
                        help="save the counts, and any harness summary, as JSON")
    parser.add_argument("--harness", metavar="RUNS",
                        help="JSON Lines file of timed benchmark runs")
    parser.add_argument("--json", action="store_true",
                        help="print this checkout's counts as JSON only")
    args = parser.parse_args()
    if args.against:
        add_layers(layers_at(args.against))
    if args.json:
        print(json.dumps(count_workloads()))
        return 0
    columns = {}
    doc = {}
    # a plain count needs no repository, so it runs in an exported tree
    if args.write or args.against:
        doc["sha"] = git("rev-parse", "HEAD")
        doc["uncommitted_changes"] = bool(git("status", "--porcelain",
                                              "--untracked-files=no"))
    if args.against:
        doc["against"] = git("rev-parse", "--verify",
                             f"{args.against}^{{commit}}")
        columns["parent"] = counts_at(doc["against"])
    columns["change" if args.against else "here"] = count_workloads()
    print_table(columns)
    doc["python"] = sys.version.split()[0]
    doc["setup_seed"] = SETUP_SEED
    doc["bytecodes_per_op"] = columns
    if args.harness:
        doc["harness"] = harness_summary(args.harness)
    if args.write:
        Path(args.write).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
