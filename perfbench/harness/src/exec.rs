//! `sim-exec`: one operation is a pass over all nine cycle-accurate
//! executors (`zfgan_dataflow::exec::*_ws`) on the MNIST-GAN layer-2 phase
//! set — 64 ↔ 128 maps, 14×14 ↔ 7×7, 5×5 kernels, stride 2 — with the
//! array sizes of `benches/exec.rs` and operands drawn from the seed.
//!
//! Set-up runs every executor once through the scalar oracle
//! (`exec::scalar`) and checks the oracle's cycles against the closed-form
//! `Dataflow::schedule`. Every timed pass is then checked against those
//! references: output bits, enumerated cycles and side counters.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_dataflow::exec::{self, scalar, ExecOutcome};
use zfgan_dataflow::{Dataflow, ExecWorkspace, Nlr, Ost, Wst, Zfost, Zfwst};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::{Fmaps, Kernels, TensorResult};
use zfgan_workloads::GanSpec;

use crate::report::{closed_loop, digest_f32, median, ms, Report, DIGEST_SEED};
use crate::trace::Tracer;
use crate::RunArgs;

/// The nine executors, in the order a pass runs them.
pub const EXECUTORS: [&str; 9] = [
    "nlr_s",
    "wst_s",
    "ost_t",
    "zfost_s",
    "zfost_t",
    "zfwst_s",
    "zfwst_t",
    "zfwst_wgrad_s",
    "zfwst_wgrad_t",
];

/// What one executor run is checked on: output bits, enumerated cycles and
/// its side counters (weight fetches, partial-sum traffic, multiply census).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    digest: u64,
    cycles: u64,
    extra: (u64, u64),
}

fn of_fmaps(o: &ExecOutcome<Fmaps<f32>>, extra: (u64, u64)) -> Outcome {
    Outcome {
        digest: digest_f32(DIGEST_SEED, o.output.as_slice()),
        cycles: o.cycles,
        extra,
    }
}

fn of_kernels(o: &ExecOutcome<Kernels<f32>>) -> Outcome {
    Outcome {
        digest: digest_f32(DIGEST_SEED, o.output.as_slice()),
        cycles: o.cycles,
        extra: (0, 0),
    }
}

struct Setup {
    s: ConvShape,
    t: ConvShape,
    ws_phase: ConvShape,
    wt_phase: ConvShape,
    big: Fmaps<f32>,
    small: Fmaps<f32>,
    k: Kernels<f32>,
    nlr: Nlr,
    wst: Wst,
    ost: Ost,
    zfost: Zfost,
    zfwst: Zfwst,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let layer = GanSpec::mnist_gan().layers()[1];
        let (small_c, large_c) = (layer.small_c, layer.large_c);
        let (large_hw, small_hw, kk) = (layer.large_hw, layer.small_hw(), layer.kernel);
        let mut rng = SmallRng::seed_from_u64(seed);
        Self {
            s: layer.shape(ConvKind::S),
            t: layer.shape(ConvKind::T),
            ws_phase: layer.shape(ConvKind::WGradS),
            wt_phase: layer.shape(ConvKind::WGradT),
            big: Fmaps::random(large_c, large_hw, large_hw, 1.0, &mut rng),
            small: Fmaps::random(small_c, small_hw, small_hw, 1.0, &mut rng),
            k: Kernels::random(small_c, large_c, kk, kk, 0.25, &mut rng),
            nlr: Nlr::new(3, 5),
            wst: Wst::new(4, 4, 2),
            ost: Ost::new(4, 4, 2),
            zfost: Zfost::new(4, 4, 2),
            zfwst: Zfwst::new(2, 2, 2),
        }
    }

    /// Multiply-accumulates one pass performs: effectual MACs for the
    /// zero-free executors and for S-CONV (which has no inserted zeros),
    /// the naive zero-walking count for OST's T-CONV.
    fn macs_per_pass(&self) -> u64 {
        let e = |p: &ConvShape| p.effectual_macs();
        e(&self.s) * 4
            + self.t.naive_muls()
            + e(&self.t) * 2
            + e(&self.ws_phase)
            + e(&self.wt_phase)
    }

    /// Closed-form cycles per executor, in [`EXECUTORS`] order.
    fn schedule_cycles(&self) -> [u64; 9] {
        [
            self.nlr.schedule(&self.s).cycles,
            self.wst.schedule(&self.s).cycles,
            self.ost.schedule(&self.t).cycles,
            self.zfost.schedule(&self.s).cycles,
            self.zfost.schedule(&self.t).cycles,
            self.zfwst.schedule(&self.s).cycles,
            self.zfwst.schedule(&self.t).cycles,
            self.zfwst.schedule(&self.ws_phase).cycles,
            self.zfwst.schedule(&self.wt_phase).cycles,
        ]
    }

    /// The scalar oracle's outcome per executor.
    fn oracle(&self) -> TensorResult<[Outcome; 9]> {
        let (big, small, k) = (&self.big, &self.small, &self.k);
        let (o, w) = scalar::nlr_s_conv(&self.nlr, &self.s, big, k)?;
        let nlr = of_fmaps(&o, (w, 0));
        let (o, rw) = scalar::wst_s_conv(&self.wst, &self.s, big, k)?;
        let wst = of_fmaps(&o, rw);
        let (o, census) = scalar::ost_t_conv(&self.ost, &self.t, small, k)?;
        let ost = of_fmaps(&o, census);
        Ok([
            nlr,
            wst,
            ost,
            of_fmaps(&scalar::zfost_s_conv(&self.zfost, &self.s, big, k)?, (0, 0)),
            of_fmaps(
                &scalar::zfost_t_conv(&self.zfost, &self.t, small, k)?,
                (0, 0),
            ),
            of_fmaps(&scalar::zfwst_s_conv(&self.zfwst, &self.s, big, k)?, (0, 0)),
            of_fmaps(
                &scalar::zfwst_t_conv(&self.zfwst, &self.t, small, k)?,
                (0, 0),
            ),
            of_kernels(&scalar::zfwst_wgrad_s(
                &self.zfwst,
                &self.ws_phase,
                big,
                small,
            )?),
            of_kernels(&scalar::zfwst_wgrad_t(
                &self.zfwst,
                &self.wt_phase,
                small,
                big,
            )?),
        ])
    }

    /// One pass through the fast engine, a span around each executor.
    /// Returns the outcomes and the time spent inside the nine calls: the
    /// summaries and the hand-back of outputs to the workspace fall
    /// outside both.
    fn pass(
        &self,
        ws: &mut ExecWorkspace<f32>,
        tr: &mut Tracer,
    ) -> TensorResult<([Outcome; 9], Duration)> {
        let (big, small, k) = (&self.big, &self.small, &self.k);
        let mut out = Vec::with_capacity(EXECUTORS.len());
        let mut busy = Duration::ZERO;
        macro_rules! timed {
            ($name:literal, $call:expr) => {{
                let span = tr.enter(concat!("dataflow.exec.", $name));
                let t = Instant::now();
                let r = $call;
                busy += t.elapsed();
                tr.exit(span);
                r?
            }};
        }
        let (o, w) = timed!("nlr_s", exec::nlr_s_conv_ws(&self.nlr, &self.s, big, k, ws));
        out.push(of_fmaps(&o, (w, 0)));
        ws.give_fmaps(o.output);
        let (o, rw) = timed!("wst_s", exec::wst_s_conv_ws(&self.wst, &self.s, big, k, ws));
        out.push(of_fmaps(&o, rw));
        ws.give_fmaps(o.output);
        let (o, census) = timed!(
            "ost_t",
            exec::ost_t_conv_ws(&self.ost, &self.t, small, k, ws)
        );
        out.push(of_fmaps(&o, census));
        ws.give_fmaps(o.output);
        let o = timed!(
            "zfost_s",
            exec::zfost_s_conv_ws(&self.zfost, &self.s, big, k, ws)
        );
        out.push(of_fmaps(&o, (0, 0)));
        ws.give_fmaps(o.output);
        let o = timed!(
            "zfost_t",
            exec::zfost_t_conv_ws(&self.zfost, &self.t, small, k, ws)
        );
        out.push(of_fmaps(&o, (0, 0)));
        ws.give_fmaps(o.output);
        let o = timed!(
            "zfwst_s",
            exec::zfwst_s_conv_ws(&self.zfwst, &self.s, big, k, ws)
        );
        out.push(of_fmaps(&o, (0, 0)));
        ws.give_fmaps(o.output);
        let o = timed!(
            "zfwst_t",
            exec::zfwst_t_conv_ws(&self.zfwst, &self.t, small, k, ws)
        );
        out.push(of_fmaps(&o, (0, 0)));
        ws.give_fmaps(o.output);
        let o = timed!(
            "zfwst_wgrad_s",
            exec::zfwst_wgrad_s_ws(&self.zfwst, &self.ws_phase, big, small, ws)
        );
        out.push(of_kernels(&o));
        ws.give_kernels(o.output);
        let o = timed!(
            "zfwst_wgrad_t",
            exec::zfwst_wgrad_t_ws(&self.zfwst, &self.wt_phase, small, big, ws)
        );
        out.push(of_kernels(&o));
        ws.give_kernels(o.output);
        let out = out.try_into().expect("one outcome per executor");
        Ok((out, busy))
    }
}

pub fn run(a: &RunArgs) -> Result<String, String> {
    let setup = Setup::new(a.seed);
    let err = |e: zfgan_tensor::ShapeError| format!("executor rejected its operands: {e}");
    let mut reference = setup.oracle().map_err(err)?;
    // A reference whose cycles disagree with the closed form is itself
    // wrong; every pass checked against it then fails.
    let schedule_ok = reference
        .iter()
        .zip(setup.schedule_cycles())
        .all(|(r, c)| r.cycles == c);
    if a.corrupt_reference {
        reference[0].digest ^= 1;
    }
    let mut ws: ExecWorkspace<f32> = ExecWorkspace::new();
    let mut off = Tracer::new(false);
    setup.pass(&mut ws, &mut off).map_err(err)?;

    let mut rep = Report {
        setup_s: a.started.elapsed().as_secs_f64(),
        ..Report::default()
    };
    if zfgan_telemetry::enabled() {
        return Err("telemetry is enabled; untraced timing would include it".into());
    }

    let untraced_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let check = |got: [Outcome; 9]| schedule_ok && got == reference;
    rep.window_s = closed_loop(&mut rep, untraced_s, a.max_ops, |_| {
        let (got, busy) = setup.pass(&mut ws, &mut off).map_err(err)?;
        Ok((ms(busy), check(got)))
    })?;

    if a.trace {
        let mut tr = Tracer::new(true);
        let first = rep.ops_ms.len();
        closed_loop(&mut rep, a.seconds / 2.0, a.max_ops, |i| {
            tr.set_op(i as u64);
            let (got, busy) = setup.pass(&mut ws, &mut tr).map_err(err)?;
            Ok((ms(busy), check(got)))
        })?;
        let n = (rep.ops_ms.len() - first) as f64;
        let by_name = tr.self_ns_by_name();
        for (i, name) in EXECUTORS.iter().enumerate() {
            let ns = by_name
                .get(&format!("dataflow.exec.{name}"))
                .copied()
                .unwrap_or(0);
            rep.layers
                .insert(format!("dataflow.exec.{name}_ms"), ns as f64 / 1e6 / n);
            rep.layers.insert(
                format!("dataflow.exec.{name}_cycles"),
                reference[i].cycles as f64,
            );
        }
        rep.info
            .insert("untraced_p50_ms".into(), median(&rep.ops_ms[..first]));
        rep.info
            .insert("traced_p50_ms".into(), median(&rep.ops_ms[first..]));
        rep.info.insert("traced_ops".into(), n);
        rep.spans = tr.into_spans();
    }
    rep.info
        .insert("macs_per_pass".into(), setup.macs_per_pass() as f64);
    Ok(rep.to_json())
}
