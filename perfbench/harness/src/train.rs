//! `train-dcgan`: closed-loop `GanTrainer::train_iteration` on
//! `GanSpec::dcgan()`, batch 1.
//!
//! The untraced run times the public `train_iteration` call. The traced run
//! replays the same iteration through public calls down to the
//! `ConvBackend` pass of every layer, with a span around each call, so the
//! per-layer rows partition the traced iteration exactly. The replay is a
//! line-for-line mirror of the trainer's deferred WGAN step (n_critic = 1),
//! and the run checks that it reproduces `train_iteration`'s weights bit
//! for bit.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_nn::{
    wgan, ConvLayer, ConvNet, Direction, GanPair, GanTrainer, LayerGrads, Optimizer, TrainerConfig,
};
use zfgan_tensor::microkernel::{set_forced_path, GemmPath};
use zfgan_tensor::{ConvWorkspace, Fmaps};
use zfgan_workloads::GanSpec;

use crate::report::{closed_loop, digest_f32, median, ms, Report, DIGEST_SEED};
use crate::trace::Tracer;
use crate::RunArgs;

/// Images per iteration.
const BATCH: usize = 1;

/// Weight-init scale of the built pair (the `trainstep` bench's value).
const INIT_SCALE: f32 = 0.05;

/// Timed operations whose trained weights are re-derived under the forced
/// packed GEMM path (after the warm-up iteration).
const PREFIX_OPS: usize = 1;

/// The trainer configuration: deferred sync, WGAN loss with RMSProp and
/// clipping, one critic update per iteration.
fn config() -> TrainerConfig {
    TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    }
}

/// The trainer and step RNG for `seed`: the same seed gives the same
/// weights and the same sampled batches.
fn build(seed: u64) -> Result<(GanTrainer, SmallRng), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pair = GanSpec::dcgan()
        .build_pair(INIT_SCALE, &mut rng)
        .map_err(|e| format!("build_pair: {e}"))?;
    Ok((GanTrainer::new(pair, config()), rng))
}

fn weights_digest(gan: &GanPair) -> u64 {
    let mut h = DIGEST_SEED;
    for net in [gan.generator(), gan.discriminator()] {
        for l in net.layers() {
            h = digest_f32(h, l.weights().as_slice());
            h = digest_f32(h, l.bias());
        }
    }
    h
}

fn losses_finite(d: &zfgan_nn::DisStepReport, g: &zfgan_nn::GenStepReport) -> bool {
    d.dis_loss.is_finite() && d.wasserstein_estimate.is_finite() && g.gen_loss.is_finite()
}

/// The `train-ref` subcommand: the weights' digest after the warm-up plus
/// `PREFIX_OPS` iterations, with every GEMM forced through the packed path
/// (the f32 equality family). It runs in a process of its own, so the
/// timed process's peak RSS holds one trainer only.
pub fn reference(seed: u64) -> Result<String, String> {
    set_forced_path(Some(GemmPath::Packed));
    let (mut trainer, mut rng) = build(seed)?;
    for _ in 0..=PREFIX_OPS {
        trainer.train_iteration(BATCH, &mut rng);
    }
    set_forced_path(None);
    Ok(format!(
        "{{\"digest\":{},\"meta\":{}}}",
        weights_digest(trainer.gan()),
        crate::report::meta_json()
    ))
}

/// The `train` subcommand. `reference` is `train-ref`'s digest for the
/// same seed.
pub fn run(a: &RunArgs, reference: u64) -> Result<String, String> {
    let (mut trainer, mut rng) = build(a.seed)?;
    let mut rep = Report::default();
    let (d, g) = trainer.train_iteration(BATCH, &mut rng);
    if !losses_finite(&d, &g) {
        return Err("warm-up iteration produced a non-finite loss".into());
    }
    rep.setup_s = a.started.elapsed().as_secs_f64();

    // Untraced window (half of it when tracing). Telemetry must be off, or
    // the trainer's own spans and counters would be timed too.
    if zfgan_telemetry::enabled() {
        return Err("telemetry is enabled; untraced timing would include it".into());
    }
    let untraced_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let mut prefix_digest = None;
    rep.window_s = closed_loop(&mut rep, untraced_s, a.max_ops, |i| {
        let t = Instant::now();
        let (d, g) = trainer.train_iteration(BATCH, &mut rng);
        let elapsed = ms(t.elapsed());
        if i + 1 == PREFIX_OPS {
            prefix_digest = Some(weights_digest(trainer.gan()));
        }
        Ok((elapsed, losses_finite(&d, &g)))
    })?;

    // Output check: the trained prefix must match the forced-packed rerun.
    let want = if a.corrupt_reference {
        reference ^ 1
    } else {
        reference
    };
    if prefix_digest.is_some_and(|got| got != want) {
        rep.failed.insert(PREFIX_OPS - 1);
    }

    if a.trace {
        traced(a, &mut trainer, &mut rng, &mut rep)?;
    }
    rep.info.insert("batch".into(), BATCH as f64);
    Ok(rep.to_json())
}

/// The traced half: replay iterations with a span around every public
/// call, then one untimed iteration under a scoped telemetry registry to
/// read the GEMM dispatch counters.
fn traced(
    a: &RunArgs,
    trainer: &mut GanTrainer,
    rng: &mut SmallRng,
    rep: &mut Report,
) -> Result<(), String> {
    let state = trainer.snapshot();
    let mut replay = Replay::new(&state);
    let mut replay_rng = rng.clone();
    // The reference the first replayed iteration must reproduce bit for bit.
    trainer.train_iteration(BATCH, rng);
    let mut want = weights_digest(trainer.gan());
    if a.corrupt_reference {
        want ^= 1;
    }

    let mut tr = Tracer::new(true);
    let first = rep.ops_ms.len();
    closed_loop(rep, a.seconds / 2.0, a.max_ops, |i| {
        tr.set_op(i as u64);
        let t = Instant::now();
        let (dis_loss, gen_loss) = replay.iteration(BATCH, &mut replay_rng, &mut tr);
        let elapsed = ms(t.elapsed());
        let replayed = i > 0 || weights_digest(&replay.gan) == want;
        Ok((
            elapsed,
            replayed && dis_loss.is_finite() && gen_loss.is_finite(),
        ))
    })?;
    let traced_ms = &rep.ops_ms[first..];
    let n = traced_ms.len() as f64;

    let by_name = tr.self_ns_by_name();
    for (name, ns) in &by_name {
        let key = if name == "iteration" {
            "nn.unattributed_ms".to_string()
        } else {
            format!("{name}_ms")
        };
        rep.layers.insert(key, *ns as f64 / 1e6 / n);
    }
    let root_total: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum::<f64>()
        / n;
    rep.info.insert("traced_iteration_ms".into(), root_total);
    rep.info.insert("traced_ops".into(), n);
    rep.info
        .insert("untraced_p50_ms".into(), median(&rep.ops_ms[..first]));
    rep.info.insert("traced_p50_ms".into(), median(traced_ms));

    // GEMMs per iteration by dispatch path, from the deterministic
    // `gemm_dispatch{path}` counters of one untimed replayed iteration.
    let reg = Arc::new(zfgan_telemetry::Registry::new());
    {
        let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
        let mut off = Tracer::new(false);
        replay.iteration(BATCH, &mut replay_rng, &mut off);
    }
    for path in [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM] {
        let count = reg
            .snapshot()
            .counters
            .iter()
            .filter(|(k, _, _)| {
                k.name == "gemm_dispatch"
                    && k.labels
                        .iter()
                        .any(|(lk, lv)| lk == "path" && lv == path.label())
            })
            .map(|(_, _, v)| *v)
            .sum::<u64>();
        rep.layers
            .insert(format!("tensor.gemm.{}", path.label()), count as f64);
    }
    rep.spans = tr.into_spans();
    Ok(())
}

/// Cached forward tensors of one sample through one network (the
/// benchmark-side twin of `zfgan_nn::Trace`).
struct Fwd {
    input: Fmaps<f32>,
    pre: Vec<Fmaps<f32>>,
    post: Vec<Fmaps<f32>>,
}

impl Fwd {
    fn output(&self) -> &Fmaps<f32> {
        self.post.last().unwrap_or(&self.input)
    }

    fn recycle(self, ws: &mut ConvWorkspace<f32>) {
        ws.give_fmaps(self.input);
        self.pre.into_iter().for_each(|p| ws.give_fmaps(p));
        self.post.into_iter().for_each(|p| ws.give_fmaps(p));
    }

    fn into_output(mut self, ws: &mut ConvWorkspace<f32>) -> Fmaps<f32> {
        let out = self.post.pop().expect("networks have at least one layer");
        self.recycle(ws);
        out
    }
}

/// Trainer state driven call by call: the networks, both optimizers and
/// the conv workspace — what `GanTrainer` owns.
struct Replay {
    gan: GanPair,
    opt_g: Optimizer,
    opt_d: Optimizer,
    ws: ConvWorkspace<f32>,
    clip: Option<f32>,
}

impl Replay {
    fn new(state: &zfgan_nn::TrainerState) -> Self {
        let (g, d) = state.optimizers();
        Self {
            gan: state.gan().clone(),
            opt_g: g.clone(),
            opt_d: d.clone(),
            ws: ConvWorkspace::new(),
            clip: config().weight_clip,
        }
    }

    /// One WGAN iteration — the deferred critic update, then the generator
    /// update — in `GanTrainer::train_iteration`'s exact call order.
    /// Returns `(dis_loss, gen_loss)`.
    fn iteration(&mut self, batch: usize, rng: &mut SmallRng, tr: &mut Tracer) -> (f64, f64) {
        let root = tr.enter("iteration");
        let reals = tr.span("workloads.sample", |_| {
            self.gan.sample_real_batch(batch, rng)
        });
        let d = tr.enter("nn.d_step");
        let dis_loss = self.step_discriminator(&reals, rng, tr);
        tr.exit(d);
        let g = tr.enter("nn.g_step");
        let gen_loss = self.step_generator(batch, rng, tr);
        tr.exit(g);
        tr.exit(root);
        (dis_loss, gen_loss)
    }

    fn step_discriminator(
        &mut self,
        reals: &[Fmaps<f32>],
        rng: &mut SmallRng,
        tr: &mut Tracer,
    ) -> f64 {
        let m = reals.len();
        let zs = tr.span("workloads.sample", |_| self.gan.sample_z_batch(m, rng));
        let mut fakes = Vec::with_capacity(m);
        for z in &zs {
            let gt = forward(self.gan.generator(), 'G', z, &mut self.ws, tr);
            fakes.push(gt.into_output(&mut self.ws));
        }
        drop(zs);

        let ws = &mut self.ws;
        let critic = self.gan.discriminator();
        let mut grads = critic.zero_grads_ws(ws);
        let mut real_scores = Vec::with_capacity(m);
        let mut fake_scores = Vec::with_capacity(m);
        for (xs, scores, err) in [
            (reals, &mut real_scores, wgan::dis_output_error_real(m)),
            (&fakes[..], &mut fake_scores, wgan::dis_output_error_fake(m)),
        ] {
            for x in xs {
                let t = forward(critic, 'D', x, ws, tr);
                scores.push(wgan::score(t.output()));
                let delta = wgan::scalar_error(err);
                let (g, dx) = backward(critic, 'D', &t, &delta, ws, tr);
                ws.give_fmaps(dx);
                for (acc, gi) in grads.iter_mut().zip(&g) {
                    acc.add_assign(gi);
                }
                g.into_iter().for_each(|gi| gi.recycle(ws));
                t.recycle(ws);
            }
        }
        for f in fakes {
            ws.give_fmaps(f);
        }

        tr.span("nn.opt", |_| {
            self.opt_d.step(self.gan.discriminator_mut(), &grads)
        });
        for g in grads {
            g.recycle(&mut self.ws);
        }
        if let Some(c) = self.clip {
            tr.span("nn.opt", |_| {
                Optimizer::clip_weights(self.gan.discriminator_mut(), c)
            });
        }
        wgan::dis_loss(&real_scores, &fake_scores)
    }

    fn step_generator(&mut self, batch: usize, rng: &mut SmallRng, tr: &mut Tracer) -> f64 {
        let zs = tr.span("workloads.sample", |_| self.gan.sample_z_batch(batch, rng));
        let ws = &mut self.ws;
        let (gen, critic) = (self.gan.generator(), self.gan.discriminator());
        let mut grads = gen.zero_grads_ws(ws);
        let mut fake_scores = Vec::with_capacity(batch);
        for z in &zs {
            let gt = forward(gen, 'G', z, ws, tr);
            let dt = forward(critic, 'D', gt.output(), ws, tr);
            let score = wgan::score(dt.output());
            fake_scores.push(score);
            let delta = wgan::scalar_error(wgan::gen_output_error(batch));
            // The critic's own gradients are computed and discarded, as in
            // the trainer: only the error on its input is needed.
            let (d_grads, delta_image) = backward(critic, 'D', &dt, &delta, ws, tr);
            d_grads.into_iter().for_each(|g| g.recycle(ws));
            let (g_grads, dx) = backward(gen, 'G', &gt, &delta_image, ws, tr);
            ws.give_fmaps(delta_image);
            ws.give_fmaps(dx);
            for (acc, g) in grads.iter_mut().zip(&g_grads) {
                acc.add_assign(g);
            }
            g_grads.into_iter().for_each(|g| g.recycle(ws));
            gt.recycle(ws);
            dt.recycle(ws);
        }
        tr.span("nn.opt", |_| {
            self.opt_g.step(self.gan.generator_mut(), &grads)
        });
        for g in grads {
            g.recycle(&mut self.ws);
        }
        wgan::gen_loss(&fake_scores)
    }
}

/// `ConvNet::forward_ws`, layer by layer.
fn forward(
    net: &ConvNet,
    tag: char,
    input: &Fmaps<f32>,
    ws: &mut ConvWorkspace<f32>,
    tr: &mut Tracer,
) -> Fwd {
    let n = net.layers().len();
    let mut pre = Vec::with_capacity(n);
    let mut post: Vec<Fmaps<f32>> = Vec::with_capacity(n);
    for (l, layer) in net.layers().iter().enumerate() {
        let cur = if l == 0 { input } else { &post[l - 1] };
        let (p, a) = layer_forward(layer, &format!("tensor.{tag}{l}"), cur, ws, tr);
        pre.push(p);
        post.push(a);
    }
    let (c, h, w) = input.shape();
    let mut own = ws.take_fmaps(c, h, w);
    own.as_mut_slice().copy_from_slice(input.as_slice());
    Fwd {
        input: own,
        pre,
        post,
    }
}

/// `ConvLayer::forward_ws`: the conv pass, then bias and activation.
fn layer_forward(
    layer: &ConvLayer,
    name: &str,
    input: &Fmaps<f32>,
    ws: &mut ConvWorkspace<f32>,
    tr: &mut Tracer,
) -> (Fmaps<f32>, Fmaps<f32>) {
    let (backend, k, geom) = (layer.backend(), layer.weights(), layer.geom());
    let mut pre = tr
        .span(&format!("{name}.fwd"), |_| match layer.direction() {
            Direction::Down => backend.s_conv_ws(input, k, geom, ws),
            Direction::Up => backend.t_conv_ws(input, k, geom, ws),
        })
        .expect("input shape matches the layer");
    let (c, h, w) = pre.shape();
    for ch in 0..c {
        let b = layer.bias()[ch];
        if b != 0.0 {
            for y in 0..h {
                for x in 0..w {
                    *pre.at_mut(ch, y, x) += b;
                }
            }
        }
    }
    let mut post = ws.take_fmaps(c, h, w);
    layer.activation().apply_into(&pre, &mut post);
    (pre, post)
}

/// `ConvNet::backward_ws`, layer by layer.
fn backward(
    net: &ConvNet,
    tag: char,
    fwd: &Fwd,
    delta_out: &Fmaps<f32>,
    ws: &mut ConvWorkspace<f32>,
    tr: &mut Tracer,
) -> (Vec<LayerGrads>, Fmaps<f32>) {
    let mut grads: Vec<Option<LayerGrads>> = (0..net.layers().len()).map(|_| None).collect();
    let (c, h, w) = delta_out.shape();
    let mut delta = ws.take_fmaps(c, h, w);
    delta.as_mut_slice().copy_from_slice(delta_out.as_slice());
    for (l, layer) in net.layers().iter().enumerate().rev() {
        let input = if l == 0 { &fwd.input } else { &fwd.post[l - 1] };
        let name = format!("tensor.{tag}{l}");
        let (dx, g) = layer_backward(layer, &name, &delta, &fwd.pre[l], input, ws, tr);
        grads[l] = Some(g);
        ws.give_fmaps(delta);
        delta = dx;
    }
    let grads = grads
        .into_iter()
        .map(|g| g.expect("every layer visited"))
        .collect();
    (grads, delta)
}

/// `ConvLayer::backward_ws`: activation derivative and bias gradient, then
/// the input-gradient (`dgrad`) and weight-gradient (`wgrad`) passes.
fn layer_backward(
    layer: &ConvLayer,
    name: &str,
    delta_post: &Fmaps<f32>,
    pre: &Fmaps<f32>,
    input: &Fmaps<f32>,
    ws: &mut ConvWorkspace<f32>,
    tr: &mut Tracer,
) -> (Fmaps<f32>, LayerGrads) {
    let (c, h, w) = pre.shape();
    let mut delta_pre = ws.take_fmaps(c, h, w);
    layer
        .activation()
        .backprop_into(delta_post, pre, &mut delta_pre);
    let mut bias = ws.take(c);
    for (ch, bg) in bias.iter_mut().enumerate() {
        let mut acc = 0.0;
        for y in 0..h {
            for x in 0..w {
                acc += *delta_pre.at(ch, y, x);
            }
        }
        *bg = acc;
    }
    let (backend, k, geom) = (layer.backend(), layer.weights(), layer.geom());
    let (dx, dw) = match layer.direction() {
        Direction::Down => {
            let (_, ih, iw) = layer.in_shape();
            let dx = tr.span(&format!("{name}.dgrad"), |_| {
                backend.s_conv_input_grad_ws(&delta_pre, k, geom, ih, iw, ws)
            });
            let dw = tr.span(&format!("{name}.wgrad"), |_| {
                backend.w_conv_for_s_layer_ws(input, &delta_pre, geom, ws)
            });
            (dx, dw)
        }
        Direction::Up => {
            let dx = tr.span(&format!("{name}.dgrad"), |_| {
                backend.t_conv_input_grad_ws(&delta_pre, k, geom, ws)
            });
            let dw = tr.span(&format!("{name}.wgrad"), |_| {
                backend.w_conv_for_t_layer_ws(input, &delta_pre, geom, ws)
            });
            (dx, dw)
        }
    };
    ws.give_fmaps(delta_pre);
    let grads = LayerGrads {
        weights: dw.expect("cached tensors match the layer"),
        bias,
    };
    (dx.expect("cached tensors match the layer"), grads)
}
