"""The four incremental optimisation steps of Fig. 14.

Starting from the TensorFHE configuration, each step enables one of Neo's
optimisations:

1. ``+KLSS``         -- switch KeySwitch from Hybrid to the KLSS method.
2. ``+dataflow``     -- BConv and IP become GEMMs (data-layout optimisation);
                        the GEMMs still run on CUDA cores.
3. ``+ten-step NTT`` -- the four-step NTT becomes the radix-16 NTT.
4. ``+FP64 TCU``     -- all GEMMs move to the FP64 tensor-core components
                        (with the 80% rule for IP), fusion and multi-stream.

The final step equals :data:`~repro.core.pipeline.NEO_CONFIG`.
"""

from __future__ import annotations

from typing import Tuple

from .pipeline import NEO_CONFIG, TENSORFHE_CONFIG, PipelineConfig

#: Ordered (label, config) ablation steps, baseline first.
ABLATION_STEPS: Tuple[Tuple[str, PipelineConfig], ...] = (
    ("TensorFHE", TENSORFHE_CONFIG),
    ("+KLSS", TENSORFHE_CONFIG.with_overrides(keyswitch="klss")),
    (
        "+dataflow opted",
        TENSORFHE_CONFIG.with_overrides(
            keyswitch="klss",
            bconv_style="gemm",
            ip_style="gemm",
            bconv_component="cuda",
            ip_component="cuda",
        ),
    ),
    (
        "+ten-step NTT",
        TENSORFHE_CONFIG.with_overrides(
            keyswitch="klss",
            bconv_style="gemm",
            ip_style="gemm",
            bconv_component="cuda",
            ip_component="cuda",
            ntt_style="radix16",
        ),
    ),
    ("+FP64 TCU", NEO_CONFIG),
)
