//! One convolutional GAN layer — strided (`Down`) or transposed (`Up`) —
//! with forward and backward passes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use zfgan_tensor::{
    ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Kernels, ShapeError, TensorResult,
};

use crate::activation::Activation;

/// Which direction of the shared geometry this layer computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// `S-CONV`: strided down-sampling (Discriminator layers).
    Down,
    /// `T-CONV`: zero-inserting up-sampling (Generator layers).
    Up,
}

/// Gradients produced by one layer's backward pass.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Loss gradient w.r.t. the layer's weights (the `W-CONV` output).
    pub weights: Kernels<f32>,
    /// Loss gradient w.r.t. the per-output-channel bias.
    pub bias: Vec<f32>,
}

impl LayerGrads {
    /// Accumulates another sample's gradients into this one — the deferred
    /// trainer's `∇W += ∇wᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &LayerGrads) {
        self.weights.add_assign(&rhs.weights);
        assert_eq!(self.bias.len(), rhs.bias.len(), "bias length mismatch");
        for (a, b) in self.bias.iter_mut().zip(&rhs.bias) {
            *a += b;
        }
    }

    /// Scales all gradients by `factor` (batch averaging).
    pub fn scale(&mut self, factor: f32) {
        self.weights.scale(factor);
        for b in &mut self.bias {
            *b *= factor;
        }
    }

    /// Returns this gradient's buffers to a workspace so the next backward
    /// pass reuses them instead of allocating.
    pub fn recycle(self, ws: &mut ConvWorkspace<f32>) {
        ws.give_kernels(self.weights);
        ws.give(self.bias);
    }

    /// Largest absolute difference to `rhs` across weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, rhs: &LayerGrads) -> f64 {
        let w = self.weights.max_abs_diff(&rhs.weights);
        let b = self
            .bias
            .iter()
            .zip(&rhs.bias)
            .map(|(a, b)| f64::from((a - b).abs()))
            .fold(0.0, f64::max);
        w.max(b)
    }
}

/// A convolutional layer: shared geometry + weights, applied in the `Down`
/// (`S-CONV`) or `Up` (`T-CONV`) direction, followed by a bias add and an
/// element-wise activation.
///
/// Weights always use the *down-direction* layout (`n_of` = small side), so
/// mirrored Generator/Discriminator layers are literally the same tensor
/// shape — the paper's "inverse architecture" made concrete.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvLayer {
    direction: Direction,
    geom: ConvGeom,
    weights: Kernels<f32>,
    bias: Vec<f32>,
    activation: Activation,
    in_shape: (usize, usize, usize),
    backend: ConvBackend,
}

impl ConvLayer {
    /// Creates a layer with the given weights.
    ///
    /// `in_shape` is `(channels, height, width)` of the layer's input.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight tensor's channel layout does not match
    /// the direction and input shape.
    pub fn new(
        direction: Direction,
        geom: ConvGeom,
        weights: Kernels<f32>,
        activation: Activation,
        in_shape: (usize, usize, usize),
    ) -> TensorResult<Self> {
        let in_c = in_shape.0;
        let (expected_in, out_c) = match direction {
            Direction::Down => (weights.n_if(), weights.n_of()),
            Direction::Up => (weights.n_of(), weights.n_if()),
        };
        if expected_in != in_c {
            return Err(ShapeError::new(format!(
                "weights expect {expected_in} input maps, layer input has {in_c}"
            )));
        }
        let bias = vec![0.0; out_c];
        Ok(Self {
            direction,
            geom,
            weights,
            bias,
            activation,
            in_shape,
            backend: ConvBackend::default(),
        })
    }

    /// Creates a layer with uniformly random weights in `[-scale, scale]`.
    ///
    /// `small_c`/`large_c` are the channel counts on the down-sampled and
    /// up-sampled sides of the geometry respectively.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvLayer::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn random<R: Rng>(
        direction: Direction,
        geom: ConvGeom,
        small_c: usize,
        large_c: usize,
        activation: Activation,
        in_shape: (usize, usize, usize),
        scale: f32,
        rng: &mut R,
    ) -> TensorResult<Self> {
        let weights = Kernels::random(small_c, large_c, geom.kh(), geom.kw(), scale, rng);
        Self::new(direction, geom, weights, activation, in_shape)
    }

    /// The layer's direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The layer's convolution geometry.
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// The layer's weights (down-direction layout).
    pub fn weights(&self) -> &Kernels<f32> {
        &self.weights
    }

    /// Mutable access to the weights — used by fault-injection campaigns
    /// to corrupt parameters in place. Shape invariants must be preserved
    /// (the slice length is fixed); values are unconstrained.
    pub fn weights_mut(&mut self) -> &mut Kernels<f32> {
        &mut self.weights
    }

    /// The layer's per-output-channel bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// How this layer computes its convolutions. Every backend is
    /// bit-identical (see [`ConvBackend`]); the default is the zero-free
    /// lowered fast path.
    pub fn backend(&self) -> ConvBackend {
        self.backend
    }

    /// Selects the convolution backend for this layer.
    pub fn set_backend(&mut self, backend: ConvBackend) {
        self.backend = backend;
    }

    /// `(channels, height, width)` of the layer input.
    pub fn in_shape(&self) -> (usize, usize, usize) {
        self.in_shape
    }

    /// `(channels, height, width)` of the layer output.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        let (_, h, w) = self.in_shape;
        match self.direction {
            Direction::Down => {
                let (oh, ow) = self.geom.down_out(h, w);
                (self.weights.n_of(), oh, ow)
            }
            Direction::Up => {
                let (oh, ow) = self.geom.up_out(h, w);
                (self.weights.n_if(), oh, ow)
            }
        }
    }

    /// Forward pass: returns `(pre_activation, post_activation)`. Runs
    /// [`ConvLayer::forward_ws`] on a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the layer's input shape.
    pub fn forward(&self, input: &Fmaps<f32>) -> TensorResult<(Fmaps<f32>, Fmaps<f32>)> {
        self.forward_ws(input, &mut ConvWorkspace::new())
    }

    /// Backward pass (paper Eqs. 3–4): given the error on the layer output
    /// (post-activation) plus the cached forward tensors, returns the error
    /// on the layer input and this layer's gradients. Runs
    /// [`ConvLayer::backward_ws`] on a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns an error if the cached tensors are inconsistent with the
    /// layer shapes.
    pub fn backward(
        &self,
        delta_post: &Fmaps<f32>,
        pre: &Fmaps<f32>,
        input: &Fmaps<f32>,
    ) -> TensorResult<(Fmaps<f32>, LayerGrads)> {
        self.backward_ws(delta_post, pre, input, &mut ConvWorkspace::new())
    }

    /// [`ConvLayer::forward`] with all transients (conv scratch, the
    /// pre/post tensors themselves) drawn from the workspace. The returned
    /// tensors belong to the caller (recycle them via
    /// [`ConvWorkspace::give_fmaps`] / [`crate::Trace::recycle`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the layer's input shape.
    pub fn forward_ws(
        &self,
        input: &Fmaps<f32>,
        ws: &mut ConvWorkspace<f32>,
    ) -> TensorResult<(Fmaps<f32>, Fmaps<f32>)> {
        if input.shape() != self.in_shape {
            return Err(ShapeError::new(format!(
                "layer expects input {:?}, got {:?}",
                self.in_shape,
                input.shape()
            )));
        }
        let mut pre = match self.direction {
            Direction::Down => self
                .backend
                .s_conv_ws(input, &self.weights, &self.geom, ws)?,
            Direction::Up => self
                .backend
                .t_conv_ws(input, &self.weights, &self.geom, ws)?,
        };
        let (c, h, w) = pre.shape();
        for ch in 0..c {
            let b = self.bias[ch];
            if b != 0.0 {
                for y in 0..h {
                    for x in 0..w {
                        *pre.at_mut(ch, y, x) += b;
                    }
                }
            }
        }
        let mut post = ws.take_fmaps(c, h, w);
        self.activation.apply_into(&pre, &mut post);
        Ok((pre, post))
    }

    /// [`ConvLayer::backward`] with all transients drawn from the
    /// workspace. The returned error and gradients belong to the caller (recycle via [`ConvWorkspace::give_fmaps`] /
    /// [`LayerGrads::recycle`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the cached tensors are inconsistent with the
    /// layer shapes.
    pub fn backward_ws(
        &self,
        delta_post: &Fmaps<f32>,
        pre: &Fmaps<f32>,
        input: &Fmaps<f32>,
        ws: &mut ConvWorkspace<f32>,
    ) -> TensorResult<(Fmaps<f32>, LayerGrads)> {
        let (c, h, w) = pre.shape();
        let mut delta_pre = ws.take_fmaps(c, h, w);
        self.activation
            .backprop_into(delta_post, pre, &mut delta_pre);
        let mut bias_grad = ws.take(c);
        for (ch, bg) in bias_grad.iter_mut().enumerate() {
            let mut acc = 0.0;
            for y in 0..h {
                for x in 0..w {
                    acc += *delta_pre.at(ch, y, x);
                }
            }
            *bg = acc;
        }
        let (delta_in, weight_grad) = match self.direction {
            Direction::Down => {
                let (_, ih, iw) = self.in_shape;
                let dx = self.backend.s_conv_input_grad_ws(
                    &delta_pre,
                    &self.weights,
                    &self.geom,
                    ih,
                    iw,
                    ws,
                )?;
                let dw = self
                    .backend
                    .w_conv_for_s_layer_ws(input, &delta_pre, &self.geom, ws)?;
                (dx, dw)
            }
            Direction::Up => {
                let dx =
                    self.backend
                        .t_conv_input_grad_ws(&delta_pre, &self.weights, &self.geom, ws)?;
                let dw = self
                    .backend
                    .w_conv_for_t_layer_ws(input, &delta_pre, &self.geom, ws)?;
                (dx, dw)
            }
        };
        ws.give_fmaps(delta_pre);
        Ok((
            delta_in,
            LayerGrads {
                weights: weight_grad,
                bias: bias_grad,
            },
        ))
    }

    /// Applies a parameter update `θ ← θ − delta` produced by an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the update's shapes do not match the layer.
    pub fn apply_update(&mut self, weight_delta: &Kernels<f32>, bias_delta: &[f32]) {
        assert_eq!(
            weight_delta.shape(),
            self.weights.shape(),
            "weight update shape mismatch"
        );
        assert_eq!(
            bias_delta.len(),
            self.bias.len(),
            "bias update length mismatch"
        );
        for (w, d) in self
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(weight_delta.as_slice())
        {
            *w -= d;
        }
        for (b, d) in self.bias.iter_mut().zip(bias_delta) {
            *b -= d;
        }
    }

    /// Clamps every weight into `[-c, c]` in place (WGAN weight clipping).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not positive.
    pub fn clamp_weights(&mut self, c: f32) {
        assert!(c > 0.0, "clip bound must be positive");
        for v in self.weights.as_mut_slice() {
            *v = v.clamp(-c, c);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Checks every invariant a freshly **deserialized** layer must satisfy.
    ///
    /// The constructors enforce these, but serde's derived `Deserialize`
    /// fills fields directly, so a truncated or edited checkpoint can
    /// produce a layer whose buffers disagree with its declared shapes, a
    /// zero-stride geometry, or non-finite parameters — all of which would
    /// otherwise only surface as a panic (or silent corruption) mid-run.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for any violated invariant.
    pub fn validate(&self) -> TensorResult<()> {
        self.geom.validate()?;
        let (n_of, n_if, kh, kw) = self.weights.shape();
        if n_of == 0 || n_if == 0 || kh == 0 || kw == 0 {
            return Err(ShapeError::new(format!(
                "weight tensor has a zero dimension: {n_of}×{n_if}×{kh}×{kw}"
            )));
        }
        if self.weights.len() != n_of * n_if * kh * kw {
            return Err(ShapeError::new(format!(
                "weight buffer holds {} values, shape {n_of}×{n_if}×{kh}×{kw} needs {}",
                self.weights.len(),
                n_of * n_if * kh * kw
            )));
        }
        if (kh, kw) != (self.geom.kh(), self.geom.kw()) {
            return Err(ShapeError::new(format!(
                "weight kernel is {kh}×{kw} but the geometry declares {}×{}",
                self.geom.kh(),
                self.geom.kw()
            )));
        }
        let (in_c, in_h, in_w) = self.in_shape;
        if in_c == 0 || in_h == 0 || in_w == 0 {
            return Err(ShapeError::new(format!(
                "input shape has a zero dimension: {in_c}×{in_h}×{in_w}"
            )));
        }
        let (expected_in, out_c) = match self.direction {
            Direction::Down => (n_if, n_of),
            Direction::Up => (n_of, n_if),
        };
        if expected_in != in_c {
            return Err(ShapeError::new(format!(
                "weights expect {expected_in} input maps, layer input has {in_c}"
            )));
        }
        if self.bias.len() != out_c {
            return Err(ShapeError::new(format!(
                "bias holds {} values for {out_c} output channels",
                self.bias.len()
            )));
        }
        match self.direction {
            Direction::Down => {
                // The padded input must cover at least one kernel window.
                if in_h + self.geom.pad_top() + self.geom.pad_bottom() < kh
                    || in_w + self.geom.pad_left() + self.geom.pad_right() < kw
                {
                    return Err(ShapeError::new(format!(
                        "padded input {in_h}×{in_w} is smaller than the kernel {kh}×{kw}"
                    )));
                }
            }
            Direction::Up => {
                // up_out computes stride·(in−1) + k − pads; it must not
                // underflow (the transposed pads can exceed k on tiny maps).
                let (pt, pb, pl, pr) = (
                    self.geom.pad_top(),
                    self.geom.pad_bottom(),
                    self.geom.pad_left(),
                    self.geom.pad_right(),
                );
                if self.geom.stride() * (in_h - 1) + kh < pt + pb + 1
                    || self.geom.stride() * (in_w - 1) + kw < pl + pr + 1
                {
                    return Err(ShapeError::new(format!(
                        "up-sampled output of {in_h}×{in_w} would be empty under this geometry"
                    )));
                }
            }
        }
        if let Some(i) = self
            .weights
            .as_slice()
            .iter()
            .chain(&self.bias)
            .position(|v| !v.is_finite())
        {
            return Err(ShapeError::new(format!(
                "parameter {i} is not finite (corrupted payload?)"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_geom() -> ConvGeom {
        ConvGeom::down(8, 8, 4, 4, 2, 4, 4).unwrap()
    }

    #[test]
    fn down_layer_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let layer = ConvLayer::random(
            Direction::Down,
            small_geom(),
            6,
            3,
            Activation::LeakyRelu { alpha: 0.2 },
            (3, 8, 8),
            0.1,
            &mut rng,
        )
        .unwrap();
        assert_eq!(layer.out_shape(), (6, 4, 4));
        let x = Fmaps::random(3, 8, 8, 1.0, &mut rng);
        let (pre, post) = layer.forward(&x).unwrap();
        assert_eq!(pre.shape(), (6, 4, 4));
        assert_eq!(post.shape(), (6, 4, 4));
    }

    #[test]
    fn up_layer_shapes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let layer = ConvLayer::random(
            Direction::Up,
            small_geom(),
            6,
            3,
            Activation::Relu,
            (6, 4, 4),
            0.1,
            &mut rng,
        )
        .unwrap();
        assert_eq!(layer.out_shape(), (3, 8, 8));
        let z = Fmaps::random(6, 4, 4, 1.0, &mut rng);
        let (_, post) = layer.forward(&z).unwrap();
        assert_eq!(post.shape(), (3, 8, 8));
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let mut rng = SmallRng::seed_from_u64(3);
        let layer = ConvLayer::random(
            Direction::Down,
            small_geom(),
            2,
            1,
            Activation::Identity,
            (1, 8, 8),
            0.1,
            &mut rng,
        )
        .unwrap();
        let wrong = Fmaps::zeros(1, 4, 4);
        assert!(layer.forward(&wrong).is_err());
    }

    #[test]
    fn rejects_channel_mismatch_at_construction() {
        let w: Kernels<f32> = Kernels::zeros(4, 2, 4, 4);
        assert!(ConvLayer::new(
            Direction::Down,
            small_geom(),
            w.clone(),
            Activation::Identity,
            (3, 8, 8)
        )
        .is_err());
        assert!(ConvLayer::new(
            Direction::Up,
            small_geom(),
            w,
            Activation::Identity,
            (3, 4, 4)
        )
        .is_err());
    }

    /// End-to-end finite-difference check through bias + activation.
    #[test]
    fn layer_gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut layer = ConvLayer::random(
            Direction::Down,
            small_geom(),
            2,
            1,
            Activation::LeakyRelu { alpha: 0.3 },
            (1, 8, 8),
            0.5,
            &mut rng,
        )
        .unwrap();
        layer.bias = vec![0.1, -0.2];
        let x = Fmaps::random(1, 8, 8, 1.0, &mut rng);
        let (pre, post) = layer.forward(&x).unwrap();
        // Loss = Σ post ⇒ delta_post = ones.
        let ones = Fmaps::from_vec(2, 4, 4, vec![1.0; 32]);
        let (dx, grads) = layer.backward(&ones, &pre, &x).unwrap();
        let loss = |l: &ConvLayer, x: &Fmaps<f32>| l.forward(x).unwrap().1.sum_f64();
        let base = post.sum_f64();
        let eps = 1e-3f32;
        // Input gradient.
        for (y, xx) in [(0usize, 0usize), (3, 5), (7, 7)] {
            let mut xp = x.clone();
            *xp.at_mut(0, y, xx) += eps;
            let fd = (loss(&layer, &xp) - base) / f64::from(eps);
            assert!(
                (fd - f64::from(*dx.at(0, y, xx))).abs() < 1e-2,
                "dx[{y}][{xx}] fd={fd} an={}",
                dx.at(0, y, xx)
            );
        }
        // Weight gradient.
        let mut lp = layer.clone();
        *lp.weights.at_mut(1, 0, 2, 2) += eps;
        let fd = (loss(&lp, &x) - base) / f64::from(eps);
        assert!((fd - f64::from(*grads.weights.at(1, 0, 2, 2))).abs() < 1e-2);
        // Bias gradient.
        let mut lb = layer.clone();
        lb.bias[0] += eps;
        let fd = (loss(&lb, &x) - base) / f64::from(eps);
        assert!((fd - f64::from(grads.bias[0])).abs() < 1e-2);
    }

    #[test]
    fn validate_accepts_constructed_layers_and_rejects_tampering() {
        let mut rng = SmallRng::seed_from_u64(17);
        let layer = ConvLayer::random(
            Direction::Down,
            small_geom(),
            4,
            2,
            Activation::Relu,
            (2, 8, 8),
            0.1,
            &mut rng,
        )
        .unwrap();
        assert!(layer.validate().is_ok());
        // Tamper as a corrupted deserialization would: fields directly.
        let mut bad_bias = layer.clone();
        bad_bias.bias = vec![0.0; 3];
        assert!(bad_bias
            .validate()
            .unwrap_err()
            .to_string()
            .contains("bias"));
        let mut bad_weight = layer.clone();
        *bad_weight.weights.at_mut(0, 0, 0, 0) = f32::NAN;
        assert!(bad_weight
            .validate()
            .unwrap_err()
            .to_string()
            .contains("finite"));
        let mut bad_shape = layer.clone();
        bad_shape.in_shape = (3, 8, 8);
        assert!(bad_shape.validate().is_err());
        let mut zero_dim = layer;
        zero_dim.in_shape = (2, 0, 8);
        assert!(zero_dim.validate().is_err());
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut a = LayerGrads {
            weights: Kernels::from_vec(1, 1, 1, 2, vec![1.0, 2.0]),
            bias: vec![4.0],
        };
        let b = LayerGrads {
            weights: Kernels::from_vec(1, 1, 1, 2, vec![1.0, -2.0]),
            bias: vec![-2.0],
        };
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.weights.as_slice(), &[1.0, 0.0]);
        assert_eq!(a.bias, vec![1.0]);
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn apply_update_subtracts() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut layer = ConvLayer::random(
            Direction::Down,
            small_geom(),
            1,
            1,
            Activation::Identity,
            (1, 8, 8),
            0.0,
            &mut rng,
        )
        .unwrap();
        let delta = Kernels::from_vec(1, 1, 4, 4, vec![1.0; 16]);
        layer.apply_update(&delta, &[2.0]);
        assert!(layer.weights().as_slice().iter().all(|&w| w == -1.0));
        assert_eq!(layer.bias[0], -2.0);
        assert_eq!(layer.param_count(), 17);
    }
}
