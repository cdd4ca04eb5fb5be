"""Video-to-music alignment toolkit.

Latent diffusion over log-mel spectrograms with storyboard-masked
cross-attention, a transition-beat aligner/adapter, rhythmic evaluation
metrics, and corpus curation. `vem --help` lists the pipeline's CLI
subcommands; each module's docstring describes its stage.
"""

from .audiofeat import (MelSpectrogram, Waveform, estimate_snr, griffin_lim,
                        load_wav, logmel, resample, save_wav)
from .beatdet import beats_within, detect_beats, estimate_tempo, spectral_flux, track_beats
from .curation import CurationRule, SynthConfig, gate, synth_corpus
from .diffusion import (Latent, latent_decode, latent_encode, make_schedule, q_sample, sample,
                        training_loss)
from .errors import DataError, StageOrderError
from .evalsuite import (StoryboardScores, frechet_distance, inception_score, mean_kld,
                        tw_score)
from .parsing import (Storyboard, TimeEmbedder, VideoAnnotation, load_manifest,
                      save_manifest, toy_text_embed)
from .rng import Rng
from .sgcatt import StoryboardMask, assemble_conditions, build_mask, level_masks, sg_cross_attention
from .tbalign import AdapterParams, AlignerNet, apply_adapter, train_aligner
from .timeline import (TimestampSet, beats_iou, from_timestamps, match_count,
                       transitions_beats_iou)
from .training import TrainConfig, sample_mel, three_stage_train
from .tunet import TUNet

__version__ = "0.1.0"
