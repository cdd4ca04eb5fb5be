"""The benchmark's workloads: train, generate and analyze.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned. A run is

1. set-up: everything from the start of the process (imports included) to
   the first timed op, timed once, so first-call costs count;
2. a timed phase of passes over the workload's ops, repeated until the run
   has lasted `seconds` and, untraced, has attempted `min_ops` ops;
3. the output checks.

An op fails when it raises DataError, gives non-finite output or makes
numpy overflow. A failed op adds its time to the phase but no audio and no
latency sample, and it never stops the run; a failed check fails the run.
The seed sets every input; clip durations and sample rates are fixed per
op slot, so the spread between seeds measures the program and not the luck
of the length draw.
"""

import dataclasses
import math
import os
import resource
import time
import warnings

import numpy as np
from scipy.signal import resample_poly

from vem import audiofeat, autograd, beatdet, curation, evalsuite, parsing, timeline, training
from vem.errors import DataError

import checks
from tracer import Tracer

P90_MIN_OPS = 100   # the 90th percentile needs ten samples beyond it
TOL_S = 0.5         # B-IoU / TB-IoU matching tolerance, the `vem eval` default

_clock = time.perf_counter


class WarningTally:
    """Records numpy RuntimeWarnings instead of printing one per op."""

    def __enter__(self):
        self._cm = warnings.catch_warnings(record=True)
        self.records = self._cm.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        return self

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)

    def mark(self):
        return len(self.records)

    def overflowed_since(self, mark):
        return any(issubclass(r.category, RuntimeWarning) and "overflow" in str(r.message)
                   for r in self.records[mark:])

    def count(self):
        return sum(1 for r in self.records if issubclass(r.category, RuntimeWarning))


class OpLog:
    """Latency, goodput and failure accounting of one timed phase."""

    def __init__(self, tally):
        self.tally = tally
        self.latency_ms = []
        self.all_ms = []          # every op, failed or not, in run order
        self.attempted = 0
        self.failed = 0
        self.audio_s = 0.0
        self._open = None

    @property
    def is_open(self):
        return self._open is not None

    def begin(self, tracer):
        span = tracer.begin_op() if tracer is not None else None
        self._open = (tracer, span, self.tally.mark(), _clock())

    def end(self):
        """Close the open op; returns (latency ms, whether numpy overflowed)."""
        t1 = _clock()
        tracer, span, mark, t0 = self._open
        self._open = None
        if tracer is not None:
            tracer.end(span)
        ms = 1000.0 * (t1 - t0)
        self.all_ms.append(ms)
        return ms, self.tally.overflowed_since(mark)

    def record(self, ok, ms, audio_s):
        self.attempted += 1
        if ok:
            self.latency_ms.append(ms)
            self.audio_s += audio_s
        else:
            self.failed += 1


def _all_finite(*arrays):
    return all(bool(np.isfinite(a).all()) for a in arrays)


# -- train ------------------------------------------------------------------


@dataclasses.dataclass
class TrainSize:
    clips: int = 4
    clip_s: float = 12.0
    aligner_steps: int = 20
    stage_steps: int = 20     # stage B and stage C each
    min_ops: int = P90_MIN_OPS


class _StepClock:
    """Op boundaries of `train`: an op runs from `Adam.zero_grad` to the end
    of `Adam.step` while stage B or C is running. Installed around each round
    in untraced and traced passes alike; it costs two clock reads a step.
    The ops of a stage are settled once the stage returns its losses.
    """

    def __init__(self, corpus, tracer, log):
        self.durations = [ann.duration_s for ann, _ in corpus]
        self.tracer, self.log = tracer, log
        self.stage_draws = None   # set while stage B or C runs
        self.pending = []

    def __enter__(self):
        cls = autograd.Adam
        self._orig = (vars(cls)["zero_grad"], vars(cls)["step"])
        zero_grad, step = self._orig
        clock = self

        def timed_zero_grad(opt):
            if clock.stage_draws is not None and not clock.log.is_open:
                clock.log.begin(clock.tracer)
            return zero_grad(opt)

        def timed_step(opt):
            out = step(opt)
            if clock.log.is_open:
                clock.pending.append(clock.log.end())
            return out

        cls.zero_grad, cls.step = timed_zero_grad, timed_step
        return self

    def __exit__(self, *exc):
        autograd.Adam.zero_grad, autograd.Adam.step = self._orig

    def settle(self, losses):
        n, draws = len(self.durations), self.stage_draws
        for i, ((ms, overflow), loss) in enumerate(zip(self.pending, losses)):
            audio = sum(self.durations[(i * draws + d) % n] for d in range(draws))
            self.log.record(math.isfinite(loss) and not overflow, ms, audio)
        self.pending = []
        self.stage_draws = None

    def abort(self):
        """A stage raised: its finished and unfinished steps all failed."""
        if self.log.is_open:
            self.pending.append(self.log.end())
        for ms, _ in self.pending:
            self.log.record(False, ms, 0.0)
        self.pending = []
        self.stage_draws = None


class Train:
    """One op is one optimizer step of stage B (diffusion) or C (adapter).

    A pass is one round: the aligner stage, stages B and C for a fixed step
    count each, then a checkpoint save -> load round trip. Every round starts
    from the same seeded state, so every round must repeat the first.
    """

    name = "train"
    ref_mel_range = None

    def __init__(self, seed, workdir, size=None):
        self.seed, self.workdir = seed, workdir
        self.size = size or TrainSize()
        self.rounds = []

    def setup(self):
        s = self.size
        self.corpus = checks.synth_clips(self.seed, s.clips, s.clip_s)
        self.cfg = training.TrainConfig(seed=self.seed, aligner_steps=s.aligner_steps,
                                        diffusion_steps=s.stage_steps, adapter_steps=s.stage_steps)
        # warm-up on a throwaway model: first-call BLAS and allocator costs
        # land here, and the seeded state of the timed rounds is untouched
        warm = training.TrainConfig(seed=self.seed + 1, diffusion_steps=1)
        training.train_stage_diffusion(self.corpus[:1], warm)

    def run_pass(self, tracer, log):
        cfg = self.cfg
        path = os.path.join(self.workdir, "round.vemt")
        losses, models = {}, None
        t0 = _clock()
        with _StepClock(self.corpus, tracer, log) as clock:
            try:
                aligner, losses["aligner"] = training.train_stage_aligner(self.corpus, cfg)
                clock.stage_draws = cfg.diffusion_draws
                unet, temb, meta, losses["diffusion"] = training.train_stage_diffusion(self.corpus, cfg)
                clock.settle(losses["diffusion"])
                clock.stage_draws = cfg.adapter_draws
                unet, temb, meta, losses["adapter"] = training.train_stage_adapter(
                    self.corpus, cfg, aligner, unet, temb, meta)
                clock.settle(losses["adapter"])
                training.save_diffusion(path, unet, temb, meta)
                models = ((unet, temb, meta), training.load_diffusion(path))
            except DataError:
                clock.abort()
        wall = _clock() - t0
        if models is not None:
            self.rounds.append({"losses": losses, "roundtrip": checks.roundtrip_mismatches(*models)})
        return wall

    def checks(self):
        out = {"losses_finite": [], "deterministic": [], "checkpoint_roundtrip": []}
        first = self.rounds[0]["losses"] if self.rounds else None
        for r, rnd in enumerate(self.rounds):
            for stage, vals in rnd["losses"].items():
                if not all(math.isfinite(v) for v in vals):
                    out["losses_finite"].append(f"round {r} stage {stage}")
                if vals != first[stage]:
                    out["deterministic"].append(f"round {r} stage {stage} differs from round 0")
            out["checkpoint_roundtrip"] += [f"round {r}: {n}" for n in rnd["roundtrip"]]
        if not self.rounds:
            out["losses_finite"].append("no round completed")
        mels = [audiofeat.logmel(w) for _, w in self.corpus]
        out["latent_codec"] = [f"clip {i}" for i in checks.codec_mismatches(mels)]
        out["fingerprint"] = checks.check_fingerprint()
        return out

    def quality(self):
        if not self.rounds:
            return {"loss_final": None}
        losses = self.rounds[0]["losses"]
        tail = losses["diffusion"][-10:] + losses["adapter"][-10:]
        return {"loss_final": float(np.mean(tail))}


# -- generate ---------------------------------------------------------------


@dataclasses.dataclass
class GenerateSize:
    clips: int = 4
    clip_s: float = 12.0
    train_steps: int = 20     # per stage: the short checkpoint of ROADMAP item 2
    held_out: int = 2
    held_out_s: float = 24.0
    sampler_steps: int = 25
    gl_iters: int = 40
    min_ops: int = 1


_HELD_OUT_STREAM = 10_000


class Generate:
    """One op is one held-out clip: `sample_mel` with aligner and adapters,
    latent decode, then `griffin_lim`. A pass runs every held-out clip once.
    """

    name = "generate"

    def __init__(self, seed, workdir, size=None):
        self.seed, self.workdir = seed, workdir
        self.size = size or GenerateSize()
        self.mels = {}
        self.nondeterministic = []

    def setup(self):
        s = self.size
        corpus = checks.synth_clips(self.seed, s.clips, s.clip_s)
        cfg = training.TrainConfig(seed=self.seed, aligner_steps=s.train_steps,
                                   diffusion_steps=s.train_steps, adapter_steps=s.train_steps)
        aligner, _ = training.train_stage_aligner(corpus, cfg)
        unet, temb, meta, _ = training.train_stage_diffusion(corpus, cfg)
        unet, temb, meta, _ = training.train_stage_adapter(corpus, cfg, aligner, unet, temb, meta)
        a_path = os.path.join(self.workdir, "aligner.vemt")
        d_path = os.path.join(self.workdir, "adapter.vemt")
        training.save_aligner(a_path, aligner, cfg)
        training.save_diffusion(d_path, unet, temb, meta)
        self.aligner, _ = training.load_aligner(a_path)
        self.unet, self.temb, self.meta = training.load_diffusion(d_path)
        self.roundtrip = checks.roundtrip_mismatches((unet, temb, meta),
                                                     (self.unet, self.temb, self.meta))
        self.roundtrip += ["aligner." + n for n in
                           checks.state_mismatches(aligner.state_dict(), self.aligner.state_dict())]
        self.held = [ann for ann, _ in
                     checks.synth_clips(self.seed, s.held_out, s.held_out_s, _HELD_OUT_STREAM)]
        self.corpus_mels = [audiofeat.logmel(w) for _, w in corpus]
        vals = np.concatenate([m.values.ravel() for m in self.corpus_mels])
        self.ref_mel_range = (float(vals.min()), float(vals.max()))
        # warm-up: one sampler step and one Griffin-Lim iteration
        training.sample_mel(self.unet, self.temb, self.meta, self.held[0], 1, self.seed,
                            aligner=self.aligner)
        audiofeat.griffin_lim(self.corpus_mels[0], iters=1)

    def run_pass(self, tracer, log):
        s = self.size
        t0 = _clock()
        for i, ann in enumerate(self.held):
            log.begin(tracer)
            mel, ok = None, False
            try:
                mel = training.sample_mel(self.unet, self.temb, self.meta, ann, s.sampler_steps,
                                          self.seed * 1000 + i, aligner=self.aligner)
                wav = audiofeat.griffin_lim(mel, iters=s.gl_iters)
                ok = _all_finite(mel.values, wav.samples)
            except DataError:
                pass
            ms, overflow = log.end()
            log.record(ok and not overflow, ms, ann.duration_s)
            if mel is not None:
                first = self.mels.setdefault(i, mel.values)
                if first.tobytes() != mel.values.tobytes():
                    self.nondeterministic.append(f"clip {i}")
        return _clock() - t0

    def checks(self):
        return {
            "checkpoint_roundtrip": list(self.roundtrip),
            "latent_codec": [f"clip {i}" for i in checks.codec_mismatches(self.corpus_mels)],
            "deterministic": sorted(set(self.nondeterministic)),
            "fingerprint": checks.check_fingerprint(),
        }

    def quality(self):
        scores = []
        for i, ann in enumerate(self.held):
            if i in self.mels:
                mel = audiofeat.MelSpectrogram(self.mels[i], audiofeat.HOP,
                                               audiofeat.SAMPLE_RATE, audiofeat.N_MELS)
                scores.append(training.generation_tb_iou(mel, ann))
            else:
                scores.append(0.0)
        return {"tb_iou": float(np.mean(scores))}


# -- analyze ----------------------------------------------------------------


@dataclasses.dataclass
class AnalyzeSize:
    rates_hz: tuple = (16000, 22050, 44100, 48000)
    clips_per_rate: int = 10
    clip_s: tuple = (10.0, 16.0)   # durations spread evenly within each rate
    min_ops: int = P90_MIN_OPS


# Mean absolute log-mel difference allowed between a clip written at another
# rate and read back through `resample`, and the clip synthesized at 16 kHz
# (about 0.02 at the seed state).
RESAMPLE_MEL_TOL = 0.1

_WARMUP_STREAM = 10_000


@dataclasses.dataclass
class _Clip:
    manifest: str
    wav: str
    rate_hz: int
    duration_s: float
    original: np.ndarray   # the 16 kHz synthesis, before writing


class Analyze:
    """One op is one on-disk clip through the `vem curate` + `vem eval`
    path: load_manifest -> load_wav -> resample -> logmel -> detect_beats ->
    gate -> B-IoU / TB-IoU / TW. A pass reads every clip of the pool once.
    """

    name = "analyze"
    ref_mel_range = None

    def __init__(self, seed, workdir, size=None):
        self.seed, self.workdir = seed, workdir
        self.size = size or AnalyzeSize()
        self.results = {}
        self.nondeterministic = []

    def _write(self, stem, ann, wav, rate):
        x = wav.samples
        if rate != audiofeat.SAMPLE_RATE:
            g = math.gcd(rate, audiofeat.SAMPLE_RATE)
            x = resample_poly(x.astype(np.float64), rate // g, audiofeat.SAMPLE_RATE // g)
        path = os.path.join(self.workdir, stem)
        audiofeat.save_wav(path + ".wav", audiofeat.Waveform(np.clip(x, -1.0, 1.0), rate))
        parsing.save_manifest(path + ".json", ann)
        return _Clip(path + ".json", path + ".wav", rate, ann.duration_s, wav.samples)

    def setup(self):
        s = self.size
        rates = s.rates_hz
        durations = np.linspace(s.clip_s[0], s.clip_s[1], s.clips_per_rate)
        self.clips = []
        for i in range(len(rates) * s.clips_per_rate):
            rate, dur = rates[i % len(rates)], float(durations[i // len(rates)])
            ann, wav = checks.synth_clips(self.seed, 1, dur, stream=i)[0]
            self.clips.append(self._write(f"clip_{i:03d}", ann, wav, rate))
        # warm-up: one clip per rate, outside the pool
        for j, rate in enumerate(rates):
            ann, wav = checks.synth_clips(self.seed, 1, s.clip_s[0], stream=_WARMUP_STREAM + j)[0]
            self._analyze(self._write(f"warmup_{j}", ann, wav, rate))

    @staticmethod
    def _analyze(clip):
        ann = parsing.load_manifest(clip.manifest)
        wav = audiofeat.load_wav(clip.wav)
        if wav.sample_rate_hz != audiofeat.SAMPLE_RATE:
            wav = audiofeat.resample(wav, audiofeat.SAMPLE_RATE)
        mel = audiofeat.logmel(wav)
        beats, bpm = beatdet.detect_beats(mel)
        dur = wav.duration_s
        found = timeline.TimestampSet([b for b in beats if b <= dur], dur)
        passed, _ = curation.gate((ann, wav))
        # no generated audio: like `vem eval` without a .gen.wav, the clip's
        # beats stand in for the generated ones
        b_iou = timeline.beats_iou(found, found, TOL_S)
        tb_iou = timeline.beats_iou(ann.transitions, found, TOL_S)
        scores, durs = [], []
        for sb in ann.storyboards:
            tv = [t for t in ann.transitions.times_s if sb.start_s <= t < sb.end_s]
            bm = [b for b in found.times_s if sb.start_s <= b < sb.end_s]
            scores.append(timeline.beats_iou(timeline.TimestampSet(tv, ann.duration_s),
                                             timeline.TimestampSet(bm, ann.duration_s), TOL_S))
            durs.append(sb.duration_s)
        tw = evalsuite.tw_score(evalsuite.StoryboardScores(scores, durs, ann.duration_s))
        f = timeline.f_measure(ann.transitions, found)
        return {"finite": _all_finite(mel.values), "samples": len(wav.samples),
                "beats": tuple(found.times_s), "bpm": bpm, "passed": passed,
                "b_iou": b_iou, "tb_iou": tb_iou, "tw": tw, "f_measure": f}

    def run_pass(self, tracer, log):
        t0 = _clock()
        for k, clip in enumerate(self.clips):
            log.begin(tracer)
            res = None
            try:
                res = self._analyze(clip)
            except DataError:
                pass
            ms, overflow = log.end()
            log.record(res is not None and res["finite"] and not overflow, ms, clip.duration_s)
            if res is not None:
                if self.results.setdefault(k, res) != res:
                    self.nondeterministic.append(f"clip {k}")
        return _clock() - t0

    def checks(self):
        outputs, roundtrip, fidelity = [], [], []
        for k, clip in enumerate(self.clips):
            res = self.results.get(k)
            if res is None:
                continue
            if res["b_iou"] != 1.0 or not all(0.0 <= res[m] <= 1.0
                                              for m in ("tb_iou", "tw", "f_measure")):
                outputs.append(f"clip {k}: metric out of range")
            if abs(res["samples"] - len(clip.original)) > 1:
                outputs.append(f"clip {k}: {res['samples']} samples at 16 kHz, "
                               f"synthesized {len(clip.original)}")
            wav = audiofeat.load_wav(clip.wav)
            if clip.rate_hz == audiofeat.SAMPLE_RATE:
                want = np.round(np.clip(clip.original, -1.0, 1.0) * 32767.0) / 32768.0
                if not np.array_equal(wav.samples, want.astype(np.float32)):
                    roundtrip.append(f"clip {k}")
            else:
                got = audiofeat.logmel(audiofeat.resample(wav, audiofeat.SAMPLE_RATE)).values
                ref = audiofeat.logmel(audiofeat.Waveform(clip.original, audiofeat.SAMPLE_RATE)).values
                n = min(len(got), len(ref))
                err = float(np.mean(np.abs(got[:n] - ref[:n])))
                if not err <= RESAMPLE_MEL_TOL:
                    fidelity.append(f"clip {k} at {clip.rate_hz} Hz: mean |dlogmel| {err:.3f}")
        return {"outputs": outputs, "wav_roundtrip": roundtrip, "resample_fidelity": fidelity,
                "deterministic": sorted(set(self.nondeterministic))}

    def quality(self):
        scores = [self.results[k]["f_measure"] if k in self.results else 0.0
                  for k in range(len(self.clips))]
        return {"beat_f_measure": float(np.mean(scores))}


WORKLOADS = {w.name: w for w in (Train, Generate, Analyze)}


# -- one run ----------------------------------------------------------------


def timed_phase(workload, log, seconds, trace):
    """Passes until `seconds` have passed and, untraced, `min_ops` ops were
    attempted. When traced, untraced and traced passes alternate and the tracer
    is installed for the traced passes only. Returns the walls of the
    untraced passes, the tracer, and the median over ops of the traced over
    the untraced latency of the same op in the same pair of passes.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.ref_mel_range = workload.ref_mel_range
    plain, ratios = [], []
    start = _clock()
    while True:
        n0 = len(log.all_ms)
        plain.append(workload.run_pass(None, log))
        if tracer is not None:
            n1 = len(log.all_ms)
            tracer.install()
            try:
                workload.run_pass(tracer, log)
            finally:
                tracer.restore()
            ratios += [t / u for u, t in zip(log.all_ms[n0:n1], log.all_ms[n1:])]
        if _clock() - start >= seconds and (trace or log.attempted >= workload.size.min_ops):
            return plain, tracer, float(np.median(ratios)) if ratios else None


def run(name, seed, seconds, trace, workdir, t_start, size=None):
    """One benchmark run. `t_start` is the `time.perf_counter()` reading at
    the start of the process; `setup_s` runs from it to the first timed op.
    Returns a report dict; see `run.py` for its shape.
    """
    workload = WORKLOADS[name](seed, workdir, size)
    workload.setup()
    setup_s = _clock() - t_start
    with WarningTally() as tally:
        log = OpLog(tally)
        plain, tracer, overhead = timed_phase(workload, log, seconds, trace)
        runtime_warnings = tally.count()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    lat = log.latency_ms
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "audio_s_per_s": (log.audio_s / sum(plain) if not trace else None, "s/s"),
        "op_ms_p50": (float(np.median(lat)) if lat else None, "ms"),
        "op_ms_p90": (float(np.percentile(lat, 90)) if len(lat) >= P90_MIN_OPS else None, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"failed_ratio": (log.failed / log.attempted if log.attempted else None, "ratio"),
             "ops_ok": (len(lat), "count"),
             "runtime_warnings": (runtime_warnings, "count")}
    extra.update({k: (v, "-") for k, v in workload.quality().items()})
    report = {
        "attempted": log.attempted, "failed": log.failed,
        "end_to_end": end_to_end, "extra": extra,
        "passes_s": plain, "op_ms": lat,
        "checks": workload.checks(),
    }
    if tracer is not None:
        ops = tracer.op_index + 1
        report["per_layer"] = tracer.layer_metrics(ops, overhead)
        report["trace_keys"] = tracer.summary()
        report["trace_missing"] = tracer.missing
        report["tracer"] = tracer
    report["correct"] = not any(report["checks"].values())
    return report
