import tracemalloc

import numpy as np
import pytest

from oracles import _unit_rows, brute_knn, full_matrix_knn, per_class_loop, record_from_json_line
from tailspin import evaluation
from tailspin.data import Dataset, generate_synthetic
from tailspin.errors import ContractError, ValidationError
from tailspin.evaluation import (
    AccuracyReport,
    KNNConfig,
    MetricsRecord,
    accuracy_suite,
    embed,
    encoder_outputs,
    export_embeddings,
    knn_classify,
)
from tailspin.io import load_dataset
from tailspin.nn import Mlp, build_model
from tailspin.pipeline import build_finetune_head
from tailspin.tensor import Tensor, l2_normalize


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(3, 50, 8, 6.0, seed=21)


@pytest.fixture(scope="module")
def model():
    return build_model("simsiam", 8, seed=22)


def labelled(features, labels, num_classes):
    """Rows whose observed and true labels are the same draw, as kNN reads only the true ones."""
    return Dataset(features, labels, labels, num_classes)


class TestEmbed:
    def test_two_calls_bitwise_identical(self, dataset, model):
        a = embed(dataset, model)
        b = embed(dataset, model)
        assert np.array_equal(a.features, b.features)

    def test_returns_frozen_dataset_with_the_sources_label_tracks(self, dataset, model):
        es = embed(dataset, model)
        assert isinstance(es, Dataset)
        assert es.features.dtype == np.float32 and not es.features.flags.writeable
        assert es.labels_observed is dataset.labels_observed and es.labels_true is dataset.labels_true
        assert (es.num_classes, es.split) == (dataset.num_classes, dataset.split)

    def test_row_count_matches_dataset(self, dataset, model):
        assert embed(dataset, model).num_samples == dataset.num_samples

    def test_untrained_encoder_beats_chance_on_separated_clusters(self, dataset, model):
        test = generate_synthetic(3, 30, 8, 6.0, seed=21, split="test")
        ref = embed(dataset, model)
        qry = embed(test, model)
        preds = knn_classify(ref, qry, KNNConfig(k=5))
        acc = np.mean(preds == qry.labels_true)
        assert acc > 1 / 3

    def test_projector_layer_selectable(self, dataset, model):
        proj = embed(dataset, model, layer="projector")
        assert proj.feature_dim == model.projector.layers[-1].weight.shape[1]


class TestKnn:
    def test_query_equals_reference_point(self):
        emb = np.random.default_rng(1).normal(size=(20, 4))
        labels = np.random.default_rng(2).integers(0, 3, size=20)
        ref = labelled(emb, labels, 3)
        qry = labelled(emb[7:8], labels[7:8], 3)
        for metric in ("cosine", "euclidean"):
            pred = knn_classify(ref, qry, KNNConfig(k=1, metric=metric))
            assert pred[0] == labels[7]

    def test_k_equals_reference_size_gives_majority_class(self):
        emb = np.random.default_rng(3).normal(size=(30, 4))
        labels = np.array([0] * 14 + [1] * 10 + [2] * 6)
        ref = labelled(emb, labels, 3)
        qry = labelled(np.random.default_rng(4).normal(size=(5, 4)), np.zeros(5, dtype=int), 3)
        preds = knn_classify(ref, qry, KNNConfig(k=30, weighting="uniform"))
        assert np.all(preds == 0)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("weighting", ["uniform", "similarity"])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_brute_force_oracle(self, metric, weighting, k):
        rng = np.random.default_rng(k * 31 + len(metric))
        ref_emb = rng.normal(size=(200, 6))
        ref_labels = rng.integers(0, 4, size=200)
        qry_emb = rng.normal(size=(50, 6))
        ref = labelled(ref_emb, ref_labels, 4)
        qry = labelled(qry_emb, np.zeros(50, dtype=int), 4)
        got = knn_classify(ref, qry, KNNConfig(k=k, metric=metric, weighting=weighting))
        want = brute_knn(
            ref.features, ref_labels, qry.features, k, 4, metric=metric, weighting=weighting
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (7, 16), (40, 32), (5, 1000), (64, 2)])
    def test_cosine_rows_normalised_bit_for_bit_as_before(self, rows, cols):
        # cosine kNN normalises with l2_normalize; the former _unit_rows is the reference
        rng = np.random.default_rng(rows * cols)
        x = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-14.0, 100.0, size=(rows, 1))
        x[::3] = 0.0
        x[1::4] *= 1e-12 / max(np.abs(x[1::4]).max(initial=0.0), 1e-300)  # rows at the 1e-12 floor
        assert l2_normalize(Tensor(x)).data.tobytes() == _unit_rows(x).tobytes()

    def test_k_larger_than_reference_rejected(self):
        ref = labelled(np.zeros((3, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ContractError):
            knn_classify(ref, ref, KNNConfig(k=5))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            KNNConfig(k=0)
        with pytest.raises(ValidationError):
            KNNConfig(metric="manhattan")


BLOCK_REFS, BLOCK_ROWS = 60, 8


def tie_heavy(rng, rows, num_classes):
    """Rounded features in three dimensions, so many scores tie exactly, with
    every fifth row all zero (the cosine zero-norm branch)."""
    x = np.round(rng.normal(size=(rows, 3)))
    x[::5] = 0.0
    return labelled(x, rng.integers(0, num_classes, size=rows), num_classes)


class TestKnnBlocks:
    """The block path against the full-matrix stable argsort, across block boundaries."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_KNN_BLOCK_ELEMENTS", BLOCK_ROWS * BLOCK_REFS)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("weighting", ["uniform", "similarity"])
    @pytest.mark.parametrize("k", [1, 5, 20, BLOCK_REFS])
    def test_matches_full_matrix_argsort(self, small_blocks, metric, weighting, k):
        rng = np.random.default_rng(k * 7 + len(metric) + len(weighting))
        base = tie_heavy(rng, BLOCK_REFS - 12, 4)
        ref = labelled(  # the first 12 rows twice: duplicated references tie on every query
            np.vstack([base.features, base.features[:12]]), np.concatenate([base.labels_true, rng.integers(0, 4, 12)]), 4
        )
        cfg = KNNConfig(k=k, metric=metric, weighting=weighting)
        for q in (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1):
            qry = tie_heavy(rng, q, 4)
            qry = labelled(np.vstack([qry.features[: q // 2], ref.features[: q - q // 2]]), qry.labels_true, 4)
            assert np.array_equal(knn_classify(ref, qry, cfg), full_matrix_knn(ref, qry, cfg)), q

    def test_blocks_follow_the_constant_and_absorb_a_lone_last_row(self, small_blocks):
        assert evaluation._query_blocks(2 * BLOCK_ROWS + 3, BLOCK_REFS) == [(0, 8), (8, 16), (16, 19)]
        assert evaluation._query_blocks(2 * BLOCK_ROWS + 1, BLOCK_REFS) == [(0, 8), (8, 17)]
        assert evaluation._query_blocks(1, BLOCK_REFS) == [(0, 1)]

    @pytest.mark.parametrize("budget", [1, 8, 64, 1 << 19])
    def test_no_one_row_block_unless_one_query(self, monkeypatch, budget):
        monkeypatch.setattr(evaluation, "_KNN_BLOCK_ELEMENTS", budget)
        for refs in (1, 3, 7, 12_408):
            for queries in range(1, 40):
                blocks = evaluation._query_blocks(queries, refs)
                assert blocks[0][0] == 0 and blocks[-1][1] == queries
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                sizes = [stop - start for start, stop in blocks]
                assert min(sizes) >= 2 or queries == 1, (queries, refs, sizes)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_production_blocks_ending_in_a_two_row_block(self, metric):
        refs = 12_408  # the stage-wise chain's training set
        rows = evaluation._KNN_BLOCK_ELEMENTS // refs
        queries = 2 * rows + 2
        assert evaluation._query_blocks(queries, refs)[-1] == (2 * rows, queries)
        rng = np.random.default_rng(len(metric))
        ref = tie_heavy(rng, refs, 10)
        qry = tie_heavy(rng, queries, 10)
        qry = labelled(np.vstack([qry.features[:rows], ref.features[: queries - rows]]), qry.labels_true, 10)
        cfg = KNNConfig(k=20, metric=metric)
        assert np.array_equal(knn_classify(ref, qry, cfg), full_matrix_knn(ref, qry, cfg))

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_memory_bounded_by_the_block_not_the_matrix(self, metric):
        rng = np.random.default_rng(5)
        ref = labelled(rng.normal(size=(4000, 16)), rng.integers(0, 5, size=4000), 5)
        qry = labelled(rng.normal(size=(2000, 16)), rng.integers(0, 5, size=2000), 5)
        tracemalloc.start()
        try:
            knn_classify(ref, qry, KNNConfig(k=20, metric=metric))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 32 x 4000 score block (1.0 MB), the 8-row selection copies (0.3 MB), and the float64
        # reference, queries and (Q, k) neighbour arrays (2.1 MB) make 3.4 MB; a second live block
        # or a whole-block partition copy adds 1 MB and fails
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB; one 2000 x 4000 float64 matrix is 61 MB"


class TestSmallestK:
    """``_smallest_k`` on one selection sub-block against the first k columns of a stable argsort."""

    REFS = 40

    def blocks(self, rng, rows):
        """Tie-heavy score blocks: all-equal rows, rows of four values (each k-th value
        recurs about ten times, on both sides of the k-th position), zeros of both signs, distinct scores."""
        mixed = rng.integers(0, 4, size=(rows, self.REFS)).astype(float)
        mixed[::2] = 1.0
        return {
            "all equal": np.full((rows, self.REFS), 0.5),
            "four values": rng.integers(0, 4, size=(rows, self.REFS)).astype(float),
            "equal and four-valued rows": mixed,
            "signed zeros": rng.choice([-0.0, 0.0, -1.0], size=(rows, self.REFS)),
            "distinct": rng.normal(size=(rows, self.REFS)),
        }

    @pytest.mark.parametrize("rows", [2, 8, 10])
    @pytest.mark.parametrize("k", [1, 2, 19, 20, REFS - 1, REFS])
    def test_first_k_of_a_stable_argsort(self, rows, k):
        for name, scores in self.blocks(np.random.default_rng(rows * 100 + k), rows).items():
            cols, values = evaluation._smallest_k(scores, k)
            want = np.argsort(scores, axis=1, kind="stable")[:, :k]
            assert cols.shape == (rows, k) and np.array_equal(cols, want), name
            assert values.tobytes() == np.take_along_axis(scores, want, axis=1).tobytes(), name


FORWARD_ROWS = 4


class TestMapRows:
    """Whole-dataset forwards in row blocks against the one-shot forward over every row."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_FORWARD_ROWS", FORWARD_ROWS)

    @staticmethod
    def forwards(model):
        head = build_finetune_head(model, 3, seed=23)

        def frozen_head(x):  # fine-tuning's frozen features under last_layer_only
            h = Mlp(head.layers[:1])(model.encoder(Tensor(x))).data
            return np.maximum(h, 0.0, out=h)

        return {
            "encoder": lambda x: model.encoder(Tensor(x)).data,
            "projector": lambda x: model.projector(model.encoder(Tensor(x))).data,
            "frozen_head": frozen_head,
        }

    @pytest.mark.parametrize("net", ["encoder", "projector", "frozen_head"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_the_one_shot_forward(self, small_blocks, model, net, dtype):
        fn = self.forwards(model)[net]
        rng = np.random.default_rng(len(net))
        # 1 row; one block; a lone last row joining the block before it; several blocks
        for n in (1, 2, FORWARD_ROWS, FORWARD_ROWS + 1, 2 * FORWARD_ROWS + 1, 3 * FORWARD_ROWS + 2, 41):
            features = rng.normal(size=(n, 8)).astype(np.float32)
            got = evaluation.map_rows(features, fn, dtype)
            want = fn(features.astype(np.float64)).astype(dtype)
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), n

    def test_blocks_follow_the_constant(self, small_blocks):
        seen = []

        def rows(x):
            seen.append(len(x))
            return x

        evaluation.map_rows(np.zeros((2 * FORWARD_ROWS + 1, 2), np.float32), rows)
        assert seen == [FORWARD_ROWS, FORWARD_ROWS + 1]

    def test_embed_and_encoder_outputs_equal_the_one_shot_forward(self, small_blocks, dataset, model):
        one_shot = self.forwards(model)
        x = dataset.features.astype(np.float64)
        assert encoder_outputs(model, dataset).tobytes() == one_shot["encoder"](x).tobytes()
        for layer in ("encoder", "projector"):
            assert embed(dataset, model, layer).features.tobytes() == one_shot[layer](x).astype(np.float32).tobytes()

    @pytest.mark.parametrize("name", ["embed", "encoder_outputs"])
    def test_memory_bounded_by_the_block_not_the_dataset(self, name):
        data = generate_synthetic(10, 2000, 8, 6.0, seed=24)
        model = build_model("simsiam", 8, seed=25)
        call = {"embed": lambda: embed(data, model).features, "encoder_outputs": lambda: encoder_outputs(model, data)}
        tracemalloc.start()
        try:
            out = call[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 20,000 x 64 float64 hidden layer is 9.8 MB
        assert peak < out.nbytes + 2 * 2**20, f"{peak / 2**20:.1f} MB for a {out.nbytes / 2**20:.1f} MB output"


class TestAccuracySuite:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = accuracy_suite(labels, labels, 3)
        assert report.overall == 1.0
        assert report.balanced == 1.0
        assert np.allclose(report.per_class, 1.0)
        assert np.allclose(report.confusion, np.eye(3))

    def test_constant_predictor_balanced_is_one_over_c(self):
        labels = np.repeat(np.arange(4), 10)
        preds = np.zeros(40, dtype=int)
        report = accuracy_suite(preds, labels, 4)
        assert report.balanced == pytest.approx(0.25, abs=1e-15)

    def test_hand_enumerated_example(self):
        # predictions [1,1,0,0] vs truth [1,0,0,0]:
        # class 0 -> 2/3 correct, class 1 -> 1/1; overall 3/4, balanced 5/6
        report = accuracy_suite(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0]), 2)
        assert report.overall == pytest.approx(0.75, abs=1e-15)
        assert report.per_class[0] == pytest.approx(2 / 3, abs=1e-15)
        assert report.per_class[1] == pytest.approx(1.0, abs=1e-15)
        assert report.balanced == pytest.approx(5 / 6, abs=1e-15)

    def test_absent_class_flagged_and_excluded(self):
        report = accuracy_suite(np.array([0, 1]), np.array([0, 1]), 3)
        assert np.isnan(report.per_class[2])
        assert report.balanced == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "preds, labels",
        [([0, 5, 1], [0, 1, 1]), ([0, 3, 1], [0, 1, 1]), ([0, -1, 1], [0, 1, 1]), ([0, 1, 1], [0, 3, 1]), ([0, 1, 1], [-1, 1, 1])],
    )
    def test_label_outside_the_classes_rejected(self, preds, labels):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 3\)"):
            accuracy_suite(np.array(preds), np.array(labels), 3)

    @pytest.mark.parametrize("num_classes", [1, 2, 5, 10])
    def test_per_class_and_confusion_bit_for_bit_as_the_loop(self, num_classes):
        rng = np.random.default_rng(num_classes)
        for n in (1, 7, 50, 997):
            labels = rng.integers(0, num_classes, size=n)
            labels[labels == num_classes - 1] = 0  # at least one class absent when num_classes > 1
            preds = rng.integers(0, num_classes, size=n)
            report = accuracy_suite(preds, labels, num_classes)
            per_class, confusion = per_class_loop(preds, labels, num_classes)
            assert report.per_class.tobytes() == per_class.tobytes()
            assert report.confusion.tobytes() == confusion.tobytes()
            assert report.balanced == float(np.nanmean(per_class))

    def test_balanced_invariant_to_class_duplication(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(3), 20)
        preds = rng.integers(0, 3, size=60)
        base = accuracy_suite(preds, labels, 3).balanced
        doubled = accuracy_suite(np.concatenate([preds, preds]), np.concatenate([labels, labels]), 3).balanced
        assert abs(base - doubled) <= 1e-12

    def test_metrics_ignore_observed_labels(self, dataset, model):
        # evaluation consumes labels_true only
        from tailspin.data import Dataset

        rng = np.random.default_rng(6)
        tampered = Dataset(
            dataset.features.copy(),
            rng.permutation(dataset.labels_observed),
            dataset.labels_true.copy(),
            dataset.num_classes,
        )
        a = embed(dataset, model)
        b = embed(tampered, model)
        assert np.array_equal(a.labels_true, b.labels_true)
        assert np.array_equal(a.features, b.features)


class TestExport:
    def test_round_trip_bitwise(self, tmp_path, dataset, model):
        # an export is a dataset directory: it reads back as the Dataset that embed returned
        es = embed(dataset, model)
        back = load_dataset(export_embeddings(es, tmp_path / "emb"))
        assert np.array_equal(back.features, es.features)
        assert np.array_equal(back.labels_observed, es.labels_observed)
        assert np.array_equal(back.labels_true, es.labels_true)
        assert (back.num_classes, back.split) == (es.num_classes, es.split)

    def test_file_size_is_4_n_r_bytes(self, tmp_path, dataset, model):
        es = embed(dataset, model)
        out = export_embeddings(es, tmp_path / "emb")
        assert (out / "features.bin").stat().st_size == 4 * es.num_samples * es.feature_dim
        assert (out / "labels_observed.bin").stat().st_size == 4 * es.num_samples
        assert (out / "labels_true.bin").stat().st_size == 4 * es.num_samples

    def test_manifest_class_count_preserved(self, tmp_path, dataset, model):
        import json

        es = embed(dataset, model)
        out = export_embeddings(es, tmp_path / "emb")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "dataset" and manifest["provenance"] == {}
        assert manifest["num_classes"] == dataset.num_classes


class TestMetricsRecord:
    def test_json_round_trip(self):
        rec = MetricsRecord("finetune", 3, 0.52, 0.001, 7, knn_accuracy=0.9, per_class_accuracy=[0.8, 1.0])
        back = record_from_json_line(rec.to_json_line())
        assert back == rec

    def test_none_fields_survive(self):
        rec = MetricsRecord("pretrain", 0, 1.5, 0.06, 7)
        back = record_from_json_line(rec.to_json_line())
        assert back.knn_accuracy is None and back.per_class_accuracy is None
