"""Set-up probe: one fresh interpreter up to its first finished request.

``python3 perfbench/setup_probe.py <workload> <workdir> <prompt>`` imports
what the workload needs, builds the pipeline (or API handler), serves one
small warm-up request from ``<workdir>/probe.npy`` / ``probe.tif`` and
prints ``ready``.  ``run.py`` times it from spawn to that line.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(workload: str, workdir: str, prompt: str) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    work = Path(workdir)
    if workload == "interactive_session":
        from repro.platform.api import ApiHandler

        handler = ApiHandler()
        sid = handler.handle({"action": "create_session"})["session_id"]
        loaded = handler.handle(
            {"action": "load_file", "session_id": sid, "path": str(work / "probe.npy")}
        )
        response = handler.handle({"action": "segment", "session_id": sid, "prompt": prompt})
        ok = loaded.get("ok") and response.get("ok")
    else:
        import numpy as np

        from repro.core.pipeline import ZenesisPipeline

        pipeline = ZenesisPipeline()
        if workload == "volume_meanbox":
            volume = np.load(work / "probe.npy", allow_pickle=False)
            result = pipeline.segment_volume(volume, prompt, temporal_mode="meanbox")
            ok = result.masks.shape == volume.shape
        else:
            result = pipeline.segment_volume_stream(
                work / "probe.tif",
                prompt,
                temporal_mode="propagate",
                checkpoint_dir=work / f"probe-ckpt-{os.getpid()}",
            )
            ok = result.n_slices > 0
    if not ok:
        print("probe request failed", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
