"""Seeded-output identity check: does the working tree write the same bytes
as another revision?

    python tools/identity.py --base REV [--out DIR]

``REV`` is extracted with ``git archive`` into a temporary directory.  For
seeds 1 and 3 (``SEEDS``), ``perfbench/corpus.py`` generates a paper-shape
corpus, and the test split is saved as the benchmark saves it.  Then, at
both revisions, each in fresh processes that import that revision's
``src/``:

- ``sentimen preprocess`` on the corpus, and on ``HANDWRITTEN``, a small
  corpus whose cells hold what the generated corpora never do: quotes, CR,
  LF and CRLF, commas, non-ASCII text, an id with surrounding spaces and an
  unlabelled empty text;
- ``sentimen train`` for one epoch, in float32 and in float64;
- ``sentimen evaluate`` of each checkpoint on the test split;
- ``sentimen predict`` of each checkpoint on the unlabelled comments;
- ``sentimen compare`` for one epoch on the corpus, whose LSTM row reads
  ``nn.predict_encoded``;
- the float64 probability vectors behind those outputs, which the CLI
  prints rounded, as ``.npy`` files: ``nn.predict`` on each unlabelled
  comment, one call each, and ``nn.predict_encoded`` over the test split.

Every artifact's sha256 is printed for both revisions, and the ones that
differ are flagged.  For a probability file that differs, the line after
it says how many vectors differ, by how much at most, and in how many the
argmax (the predicted label) differs.  Exit status 0 when every artifact
is byte-identical, 1 otherwise.  The artifacts are kept under ``--out`` when it is given.
BLAS runs one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 3)
DTYPES = ("float32", "float64")
HANDWRITTEN = ('id,source,text,label\r\n'
               '1,vid,"kata ""aneh"", dengan koma",positive\r\n'
               '2,vid,"baris\rsatu\nbaris dua\r\nbaris tiga",negative\r\n'
               ' 3 ,vid,makanan énak sekali \U0001F600,positive\r\n'
               '4,vid,,\r\n')

# run at each revision: argv is the model dir, the test CSV, the unlabelled
# comments (one a line) and the output file's prefix
_PROBABILITIES = """
import sys
from pathlib import Path
import numpy as np
from sentimen import ingest, nn, preprocess, vocab
model, test_csv, unlabeled, out = map(Path, sys.argv[1:])
params, _ = nn.load_checkpoint(model / "checkpoint.bin")
voc, max_len, _ = vocab.load_vocab(model / "vocab.txt")
pp = preprocess.PreprocessConfig.default()
one = [nn.predict(text, params, voc, pp).probabilities
       for text in unlabeled.read_text("utf-8").splitlines()]
docs = [preprocess.run_pipeline(r.text, pp)
        for r in ingest.load_csv(test_csv).records]
batch = [p.probabilities for p in
         nn.predict_encoded(params, *vocab.encode(docs, voc, max_len))]
for name, probs in (("predict", one), ("predict_encoded", batch)):
    np.save(f"{out}-{name}.npy", np.asarray(probs, dtype=np.float64))
"""


def write_inputs(seed: int, out: Path) -> None:
    """The seed's corpus, its test split and its unlabelled comments, and
    the hand-written corpus."""
    import corpus
    from sentimen import ingest

    comments = corpus.generate(
        corpus.Dictionaries.read(ROOT / "src" / "sentimen" / "data"),
        corpus.PAPER_SHAPE, seed)
    corpus.write_csv(comments, out / "corpus.csv")
    labeled = ingest.load_csv(out / "corpus.csv").labeled_only()
    test = ingest.stratified_split(labeled,
                                   ingest.SplitSpec(0.70, 0.15, 0.15, seed=0))[2]
    ingest.save_csv(test, out / "test.csv")
    texts = [c.text for c in comments if not c.label]
    if any("\n" in t or "\r" in t for t in texts):
        raise ValueError("an unlabelled comment spans lines")
    (out / "unlabeled.txt").write_text("".join(t + "\n" for t in texts), "utf-8")
    (out / "handwritten.csv").write_bytes(HANDWRITTEN.encode("utf-8"))
    for dtype in DTYPES:
        (out / f"{dtype}.cfg").write_text(f"dtype = {dtype}\n", "utf-8")


def run_revision(src: Path, inputs: Path, out: Path) -> None:
    """Every artifact of one revision, written under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def python(*argv: str, stdin: Path | None = None,
               stdout: Path | None = None) -> None:
        with open(stdin or os.devnull, "rb") as fin, \
                open(stdout or os.devnull, "wb") as fout:
            subprocess.run([sys.executable, *argv], cwd=out, env=env,
                           stdin=fin, stdout=fout, check=True)

    def sentimen(*argv: str, **kw) -> None:
        python("-m", "sentimen.cli", *argv, **kw)

    out.mkdir(parents=True)
    sentimen("preprocess", str(inputs / "corpus.csv"),
             "--out", str(out / "preprocess.csv"), "--quiet")
    sentimen("preprocess", str(inputs / "handwritten.csv"),
             "--out", str(out / "handwritten.csv"), "--quiet")
    sentimen("compare", str(inputs / "corpus.csv"), "--epochs", "1",
             "--out-dir", str(out / "compare"), "--quiet")
    for dtype in DTYPES:
        model = out / f"train-{dtype}"
        sentimen("train", str(inputs / "corpus.csv"), "--epochs", "1",
                 "--config", str(inputs / f"{dtype}.cfg"),
                 "--out-dir", str(model), "--quiet")
        sentimen("evaluate", str(model / "checkpoint.bin"),
                 str(inputs / "test.csv"), "--out-dir",
                 str(out / f"evaluate-{dtype}"), "--quiet")
        sentimen("predict", str(model / "checkpoint.bin"),
                 stdin=inputs / "unlabeled.txt",
                 stdout=out / f"predict-{dtype}.txt")
        python("-c", _PROBABILITIES, str(model), str(inputs / "test.csv"),
               str(inputs / "unlabeled.txt"), str(out / f"probabilities-{dtype}"))


def probability_change(base: Path, tree: Path) -> str:
    """How two dumps of (N, C) probability vectors differ."""
    a, b = np.load(base), np.load(tree)
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    moved = int(np.any(a != b, axis=1).sum())
    return (f"{moved} of {len(a)} vectors differ, by at most "
            f"{np.max(np.abs(a - b), initial=0.0):.2g}; argmax differs in "
            f"{int(np.sum(a.argmax(axis=1) != b.argmax(axis=1)))}")


def digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare with")
    p.add_argument("--out", type=Path,
                   help="keep the artifacts here (default: a temporary directory)")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        work = args.out or Path(tmp)
        base = work / "base-tree"
        base.mkdir(parents=True)
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                             capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            # the "data" filter exists from Python 3.10.12 and 3.11.4 on;
            # the archive comes from this repository's own history
            if hasattr(tarfile, "data_filter"):
                archive.extractall(base, filter="data")
            else:
                archive.extractall(base)
        differing = total = 0
        for seed in SEEDS:
            inputs = work / f"seed{seed}" / "inputs"
            inputs.mkdir(parents=True)
            write_inputs(seed, inputs)
            sides = {}
            for side, src in (("base", base / "src"), ("tree", ROOT / "src")):
                print(f"seed {seed}: running {side} ...", flush=True)
                run_revision(src, inputs, work / f"seed{seed}" / side)
                sides[side] = digests(work / f"seed{seed}" / side)
            for name in sorted(sides["base"].keys() | sides["tree"].keys()):
                a, b = sides["base"].get(name, "-"), sides["tree"].get(name, "-")
                total += 1
                if a == b:
                    print(f"  same     seed{seed}/{name}  {a}")
                else:
                    differing += 1
                    print(f"  DIFFERS  seed{seed}/{name}  base {a}  tree {b}")
                    if name.startswith("probabilities-") and "-" not in (a, b):
                        print("           " + probability_change(
                            work / f"seed{seed}" / "base" / name,
                            work / f"seed{seed}" / "tree" / name))
    print(f"{total - differing} of {total} artifacts byte-identical "
          f"(base {args.base}, working tree)")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
