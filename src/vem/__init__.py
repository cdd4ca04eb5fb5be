"""Video-to-music alignment toolkit.

Latent diffusion over log-mel spectrograms with storyboard-masked
cross-attention, a transition-beat aligner/adapter, rhythmic evaluation
metrics, and corpus curation. `vem --help` lists the pipeline's CLI
subcommands; each module's docstring describes its stage.

`import vem` loads every library module but re-exports nothing, so each
public name has one import path; `vem.cli`, the entry point, loads alone.
"""

from . import (audiofeat, autograd, beatdet, container, curation, diffusion, errors, evalsuite,
               parsing, rng, sgcatt, tbalign, timeline, training, tunet)

__version__ = "0.1.0"
