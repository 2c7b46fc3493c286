import csv
import io
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest

from sentimen import nn, preprocess
from sentimen.preprocess import PreprocessConfig
from sentimen.train import EpochStats
from sentimen.vocab import build_vocab

# small labeled corpus in the canonical CSV shape; texts only use words the
# bundled dictionaries know so pipeline output is predictable
POSITIVE_TEXTS = [
    "Program makan gratis ini sangat bagus untuk anak sekolah",
    "makanannya enak dan bergizi",
    "terima kasih programnya mantap",
    "anak anak senang dapat makanan sehat",
    "bagus banget programnya lanjutkan",
    "sangat membantu keluarga miskin",
    "menu makan siang enak sekali",
    "programnya berhasil anak jadi sehat",
]
NEGATIVE_TEXTS = [
    "program gagal total anggaran habis",
    "makanannya basi dan tidak layak",
    "korupsi anggaran makan gratis memalukan",
    "anggaran negara habis untuk program bohong",
    "kualitas makanan buruk sekali mengecewakan",
    "tolong hentikan program jelek ini",
    "menu tidak sehat anak jadi sakit",
    "pelaksanaan kacau dan mengecewakan warga",
]


@pytest.fixture(scope="session")
def pp_cfg() -> PreprocessConfig:
    return PreprocessConfig.default()


@pytest.fixture(scope="module")
def random_corpus():
    """Seeded corpus with empty documents, tokens too rare for the vocabulary
    (min_freq 2) in training, and tokens never seen in training in the test
    documents."""
    rng = np.random.default_rng(20240601)
    words = [f"w{k}" for k in range(120)]

    def docs(n, pool):
        zipf = 1.0 / np.arange(1, len(pool) + 1)
        return [[str(t) for t in rng.choice(pool, size=rng.geometric(0.12) - 1,
                                            p=zipf / zipf.sum())]
                if rng.random() > 0.08 else [] for _ in range(n)]

    train_docs = docs(150, words[:100])
    test_docs = docs(60, words) + [[], ["zzz", "w119"]]
    labels = [int(l) for l in (rng.random(len(train_docs)) < 0.3)]
    vocab = build_vocab(train_docs, min_freq=2)
    assert any(not d for d in train_docs) and any(not d for d in test_docs)
    assert any(t not in vocab.token_to_index for d in train_docs for t in d)
    return train_docs, labels, test_docs, vocab


@pytest.fixture(autouse=True)
def fresh_preprocess_tables():
    """Each test resolves new configs to a new word memo, so none sees the
    memo an earlier test warmed."""
    preprocess._memo_for.cache_clear()


def dense(grad, shape, dtype) -> np.ndarray:
    """The ``shape`` array that the ``nn.RowGrad`` ``grad`` is zero outside."""
    out = np.zeros(shape, dtype=dtype)
    out[grad.rows] = grad.values
    return out


def dense_grads(params, grads):
    """``nn.backward``'s gradients with each ``RowGrad`` made a dense array."""
    arrays = params.arrays()
    return {name: dense(g, arrays[name].shape, arrays[name].dtype)
            if isinstance(g, nn.RowGrad) else g for name, g in grads.items()}


def read_history_csv(path) -> list[EpochStats]:
    """The epochs ``train.save_history_csv`` wrote to ``path``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [EpochStats(int(row["epoch"]), float(row["train_loss"]),
                           float(row["train_acc"]), float(row["val_loss"]),
                           float(row["val_acc"]))
                for row in csv.DictReader(fh)]


def read_report_csv(text: str) -> dict[str, dict[str, float]]:
    """``evaluation.report_to_csv``'s text as row -> column -> value."""
    out = {}
    for row in csv.DictReader(io.StringIO(text)):
        name = row.pop("row")
        out[name] = {k: float(v) for k, v in row.items() if v != ""}
    return out


def write_corpus_csv(path, rows):
    """rows: iterable of (id, source, text, label_name)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "source", "text", "label"])
        writer.writerows(rows)
    return path


@pytest.fixture
def toy_corpus_csv(tmp_path):
    rows = []
    for i, text in enumerate(POSITIVE_TEXTS):
        rows.append((f"p{i}", "chan1", text, "positive"))
    for i, text in enumerate(NEGATIVE_TEXTS):
        rows.append((f"n{i}", "chan2", text, "negative"))
    return write_corpus_csv(tmp_path / "corpus.csv", rows)


class _CommentsHandler(BaseHTTPRequestHandler):
    """Stands in for the comment-threads endpoint; behavior set per-server."""

    def log_message(self, *args):  # keep pytest output clean
        pass

    def do_GET(self):
        query = parse_qs(urlparse(self.path).query)
        server = self.server
        server.requests.append(query)
        if server.fail_status is not None:
            self.send_response(server.fail_status)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(json.dumps(server.fail_body or {}).encode())
            return
        token = query.get("pageToken", [None])[0]
        page_no = int(token.split("-")[1]) if token else 0
        items = [
            {"snippet": {"topLevelComment": {
                "id": f"c{page_no}-{j}",
                "snippet": {"textOriginal": f"komentar {page_no} {j}"}}}}
            for j in range(server.page_size)
        ]
        body = {"items": items}
        if page_no + 1 < server.n_pages:
            body["nextPageToken"] = f"page-{page_no + 1}"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(body).encode())


class MockCommentsServer:
    def __init__(self, n_pages=2, page_size=3, fail_status=None, fail_body=None):
        self.httpd = HTTPServer(("127.0.0.1", 0), _CommentsHandler)
        self.httpd.n_pages = n_pages
        self.httpd.page_size = page_size
        self.httpd.fail_status = fail_status
        self.httpd.fail_body = fail_body
        self.httpd.requests = []
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/commentThreads"

    @property
    def requests(self):
        return self.httpd.requests

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def comments_server():
    servers = []

    def make(**kwargs):
        server = MockCommentsServer(**kwargs)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
