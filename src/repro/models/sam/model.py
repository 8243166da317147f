"""The Sam facade and :class:`SamPredictor` (the segment-anything API).

``SamPredictor`` mirrors the upstream interface: ``set_image`` once per
image (runs the ViT encoder and the analytic precomputation), then
``predict`` per prompt.  Internally both paths run on every call:

* the **transformer path** — prompt encoder → two-way mask decoder — whose
  token outputs and logits are exposed via ``last_decoder_output``;
* the **analytic path** — :class:`AnalyticMaskHead` — which supplies the
  returned masks and quality scores (the substitution for pretrained
  hypernetwork weights; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cache import MISS, InferenceCache, array_content_key, combine_keys, config_fingerprint, get_cache
from ...errors import ModelConfigError, PromptError
from ...utils.rng import derive_seed
from ..nn import ParamFactory
from ..nn.precision import get_precision
from .analytic import AnalyticContext, AnalyticMaskHead, MaskHypothesis
from .image_encoder import ImageEncoderViT
from .mask_decoder import DecoderOutput, MaskDecoder
from .prompt_encoder import PromptEncoder

__all__ = ["SamConfig", "Sam", "SamPredictor"]


@dataclass(frozen=True)
class SamConfig:
    """Architecture hyper-parameters (mirrors SAM's ViT variants)."""

    name: str = "vit_t"
    patch_size: int = 16
    encoder_dim: int = 96
    encoder_depth: int = 4
    encoder_heads: int = 4
    encoder_window: int = 0  # 0 = all-global attention; SAM ViT-H uses 14
    prompt_dim: int = 64
    decoder_depth: int = 2
    decoder_heads: int = 4
    num_multimask: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.prompt_dim % 4:
            raise ModelConfigError("prompt_dim must be divisible by 4")
        if self.num_multimask < 1:
            raise ModelConfigError("num_multimask must be >= 1")


class Sam:
    """Container tying encoder, prompt encoder, decoder, and analytic head."""

    def __init__(self, config: SamConfig | None = None, *, analytic: AnalyticMaskHead | None = None) -> None:
        self.config = config or SamConfig()
        params = ParamFactory(derive_seed(self.config.seed, "sam", self.config.name))
        c = self.config
        self.image_encoder = ImageEncoderViT(
            params.child("image_encoder"),
            patch_size=c.patch_size,
            embed_dim=c.encoder_dim,
            depth=c.encoder_depth,
            n_heads=c.encoder_heads,
            out_chans=c.prompt_dim,
            window_size=c.encoder_window,
        )
        self.prompt_encoder = PromptEncoder(params.child("prompt_encoder"), embed_dim=c.prompt_dim)
        self.mask_decoder = MaskDecoder(
            params.child("mask_decoder"),
            embed_dim=c.prompt_dim,
            n_heads=c.decoder_heads,
            depth=c.decoder_depth,
            num_multimask=c.num_multimask,
        )
        self.analytic = analytic or AnalyticMaskHead()


class SamPredictor:
    """Stateful per-image predictor (the API applications use)."""

    def __init__(self, sam: Sam | None = None, *, cache: InferenceCache | None = None) -> None:
        self.sam = sam or Sam()
        self.cache = cache if cache is not None else get_cache()
        self._fingerprints: dict[str, str] = {}
        self._image: np.ndarray | None = None
        self._image_key: str | None = None
        self._embedding: np.ndarray | None = None
        self._dense_pe: np.ndarray | None = None
        self._ctx: AnalyticContext | None = None
        self.last_decoder_output: DecoderOutput | None = None

    @property
    def _fingerprint(self) -> str:
        """Cache-key fingerprint: config ⊕ analytic head ⊕ ACTIVE precision tier.

        Resolved at every key construction, not snapshotted in ``__init__``:
        ``set_precision()`` / the ``precision()`` scope may flip the tier
        after this predictor exists, and a construction-time snapshot would
        file fast-tier embeddings under exact-tier keys — poisoning the
        shared (disk-tier) cache with non-bit-exact entries.  Any config or
        analytic-head change still invalidates every cached product.
        """
        tier = get_precision()
        fp = self._fingerprints.get(tier)
        if fp is None:
            # config_fingerprint folds in precision_tag() for the tier that
            # is active right now, so memoising per tier is exact.
            fp = config_fingerprint(self.sam.config, self.sam.analytic)
            self._fingerprints[tier] = fp
        return fp

    @property
    def is_image_set(self) -> bool:
        return self._image is not None

    @property
    def analytic_context(self) -> AnalyticContext:
        if self._ctx is None:
            raise PromptError("call set_image before predicting")
        return self._ctx

    @staticmethod
    def _normalize_image(image: np.ndarray) -> np.ndarray:
        """Shared set_image/precompute_images normalisation and validation.

        Both paths must produce byte-identical arrays — the cache key hashes
        the normalised content, so any divergence here would split the keys.
        """
        img = np.asarray(image, dtype=np.float32)
        if img.ndim == 3:
            img = img.mean(axis=2)
        if img.ndim != 2:
            raise PromptError(f"set_image expects HxW (or HxWxC) array, got shape {img.shape}")
        if img.min() < -1e-4 or img.max() > 1 + 1e-4:
            raise PromptError("set_image expects a [0,1] float image; run the adaptation layer first")
        return img

    def set_image(self, image: np.ndarray) -> None:
        """Encode a float [0,1] grayscale image; heavy work happens once here."""
        img = self._normalize_image(image)
        self._image = img
        self._image_key = combine_keys(array_content_key(img), self._fingerprint)
        cached = self.cache.get("sam.image", self._image_key)
        if cached is MISS:
            embedding = self.sam.image_encoder(img)
            ctx = self.sam.analytic.prepare(img)
            self.cache.put("sam.image", self._image_key, (embedding, ctx))
        else:
            embedding, ctx = cached
        self._embedding = embedding
        self._ctx = ctx
        gh, gw, _ = embedding.shape
        pe_key = combine_keys(f"{gh}x{gw}", self._fingerprint)
        self._dense_pe = self.cache.get_or_compute(
            "sam.dense_pe", pe_key, lambda: self.sam.prompt_encoder.dense_pe((gh, gw))
        )
        self.last_decoder_output = None

    def precompute_images(self, images) -> dict[str, int]:
        """Warm the ``sam.image`` cache for N images in one batched encode.

        Computes exactly the ``(embedding, analytic context)`` tuple that
        :meth:`set_image` would store, under the identical content key, so
        a later ``set_image`` on any of these images — in this process or
        any replica sharing the disk tier — is a pure cache hit.  Images
        already cached (or repeated within the batch) are skipped.

        Returns ``{"hits": already-cached, "encoded": newly-computed}``.
        With caching disabled this is a no-op: there is nowhere to put the
        embeddings, so batching would be pure waste.
        """
        if not self.cache.enabled:
            return {"hits": 0, "encoded": 0}
        normalized: list[np.ndarray] = []
        keys: list[str] = []
        for image in images:
            img = self._normalize_image(image)
            normalized.append(img)
            keys.append(combine_keys(array_content_key(img), self._fingerprint))
        pending: list[int] = []
        seen: set[str] = set()
        for i, key in enumerate(keys):
            if key in seen or self.cache.get("sam.image", key) is not MISS:
                continue
            seen.add(key)
            pending.append(i)
        if pending:
            embeddings = self.sam.image_encoder.encode_batch([normalized[i] for i in pending])
            for i, embedding in zip(pending, embeddings):
                ctx = self.sam.analytic.prepare(normalized[i])
                self.cache.put("sam.image", keys[i], (embedding, ctx))
        return {"hits": len(keys) - len(pending), "encoded": len(pending)}

    def reset_image(self) -> None:
        self._image = None
        self._image_key = None
        self._embedding = None
        self._dense_pe = None
        self._ctx = None
        self.last_decoder_output = None

    def predict(
        self,
        *,
        point_coords: np.ndarray | None = None,
        point_labels: np.ndarray | None = None,
        box: np.ndarray | None = None,
        mask_input: np.ndarray | None = None,
        multimask_output: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment with the given prompt.

        Returns ``(masks, scores, low_res_logits)`` with masks sorted by
        score descending; ``multimask_output=False`` keeps only the best.
        """
        if self._image is None or self._embedding is None or self._ctx is None:
            raise PromptError("call set_image before predicting")
        h, w = self._image.shape
        gh, gw, _ = self._embedding.shape

        sparse, dense = self.sam.prompt_encoder.encode(
            (h, w),
            points=point_coords,
            labels=point_labels,
            box=box,
            mask_input=mask_input,
            grid=(gh, gw),
        )
        self.last_decoder_output = self.sam.mask_decoder(
            self._embedding, self._dense_pe, sparse, dense
        )

        hyps: list[MaskHypothesis]
        if box is not None:
            hyps = self.masks_from_box(np.asarray(box))
            if point_coords is not None:
                hyps += self.sam.analytic.masks_from_points(
                    self._ctx, np.asarray(point_coords), np.asarray(point_labels)
                )
        elif point_coords is not None:
            hyps = self.sam.analytic.masks_from_points(
                self._ctx, np.asarray(point_coords), np.asarray(point_labels)
            )
        else:
            raise PromptError("predict needs a box and/or points")

        hyps = sorted(hyps, key=lambda hh: -hh.score)
        if not multimask_output:
            hyps = hyps[:1]
        masks = np.stack([hh.mask for hh in hyps], axis=0)
        scores = np.array([hh.score for hh in hyps], dtype=np.float32)
        n = len(hyps)
        logits = self.last_decoder_output.mask_logits
        low_res = logits[: n] if logits.shape[0] >= n else np.repeat(logits[:1], n, axis=0)
        return masks, scores, low_res

    # -- batched box prompts ---------------------------------------------------

    def decode_boxes(self, boxes: np.ndarray) -> list[DecoderOutput]:
        """Run the transformer path for K box prompts in ONE decoder pass.

        Stacks all box tokens into a ``(K, 2, D)`` prompt batch so the
        prompt-encoder/mask-decoder matmuls execute once at shape ``(K, …)``
        instead of K times.  Sets ``last_decoder_output`` to the final box's
        output, matching a serial prompt loop.  Decoder outputs are cached
        per (image content, box set).
        """
        if self._image is None or self._embedding is None:
            raise PromptError("call set_image before predicting")
        b = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
        if b.shape[0] == 0:
            return []
        key = combine_keys(self._image_key, array_content_key(b))
        outputs = self.cache.get("sam.decode", key)
        if outputs is MISS:
            h, w = self._image.shape
            sparse = self.sam.prompt_encoder.encode_boxes((h, w), b)
            outputs = self.sam.mask_decoder.decode_batch(self._embedding, self._dense_pe, sparse)
            self.cache.put("sam.decode", key, outputs)
        self.last_decoder_output = outputs[-1]
        return outputs

    def predict_boxes(
        self, boxes: np.ndarray, *, multimask_output: bool = True
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batched equivalent of calling :meth:`predict` once per box.

        Returns one ``(masks, scores, low_res_logits)`` triple per box, in
        input order, with the decoder run once for the whole box stack.
        """
        b = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
        outputs = self.decode_boxes(b)
        results: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for box, out in zip(b, outputs):
            hyps = sorted(self.masks_from_box(box), key=lambda hh: -hh.score)
            if not multimask_output:
                hyps = hyps[:1]
            masks = np.stack([hh.mask for hh in hyps], axis=0)
            scores = np.array([hh.score for hh in hyps], dtype=np.float32)
            n = len(hyps)
            logits = out.mask_logits
            low_res = logits[:n] if logits.shape[0] >= n else np.repeat(logits[:1], n, axis=0)
            results.append((masks, scores, low_res))
        return results

    def masks_from_box(self, box: np.ndarray) -> list[MaskHypothesis]:
        """Analytic hypotheses for one box on the current image, cached.

        HITL loops and grounded selection revisit the same (image, box)
        pairs; content addressing makes the second visit free.  The cache
        holds the window-local result (window + window-sized masks); every
        call pastes it into fresh full-frame masks, so callers may mutate
        what they get without touching the cached entry.
        """
        if self._ctx is None:
            raise PromptError("call set_image before predicting")
        b = np.asarray(box, dtype=np.float64).reshape(4)
        # "windowed" names the entry format: a disk tier shared with older
        # builds holds full-frame hypothesis lists under the bare key.
        key = combine_keys(self._image_key, array_content_key(b), "windowed")
        windowed = self.cache.get_or_compute(
            "sam.analytic_box", key, lambda: self.sam.analytic.box_hypotheses(self._ctx, b)
        )
        return windowed.paste()

    def score_terms(self, mask: np.ndarray) -> dict[str, float]:
        """Quality decomposition for an arbitrary mask on the current image."""
        if self._ctx is None:
            raise PromptError("call set_image before scoring")
        _, terms = self.sam.analytic.score_mask(self._ctx, mask)
        return terms
