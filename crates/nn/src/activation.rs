//! Element-wise activation functions and their derivatives.

use serde::{Deserialize, Serialize};
use zfgan_tensor::Fmaps;

/// An element-wise activation function.
///
/// DCGAN uses LeakyReLU(0.2) inside the Discriminator, ReLU inside the
/// Generator and Tanh on the Generator output; the WGAN critic output is
/// linear ([`Activation::Identity`]).
///
/// # Example
///
/// ```
/// use zfgan_nn::Activation;
///
/// let a = Activation::LeakyRelu { alpha: 0.2 };
/// assert_eq!(a.apply_scalar(3.0), 3.0);
/// assert_eq!(a.apply_scalar(-1.0), -0.2);
/// assert_eq!(a.derivative_scalar(-1.0), 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// `f(x) = x` — used on the WGAN critic output.
    #[default]
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = x` for `x ≥ 0`, `α·x` otherwise.
    LeakyRelu {
        /// Negative-side slope (DCGAN uses `0.2`).
        alpha: f32,
    },
    /// Hyperbolic tangent — the Generator's output squashing.
    Tanh,
}

impl Activation {
    /// Applies the activation to one pre-activation value.
    pub fn apply_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu { alpha } => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative w.r.t. the pre-activation value `x`.
    ///
    /// (The kink of ReLU-family functions at `0` takes the right-hand
    /// derivative, the universal deep-learning convention.)
    pub fn derivative_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu { alpha } => {
                if x >= 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }

    /// Applies the activation to every element of `pre`, writing into a
    /// caller-provided tensor. Overwrites every element of `out`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn apply_into(self, pre: &Fmaps<f32>, out: &mut Fmaps<f32>) {
        assert_eq!(pre.shape(), out.shape(), "activation shape mismatch");
        for (o, &p) in out.as_mut_slice().iter_mut().zip(pre.as_slice()) {
            *o = self.apply_scalar(p);
        }
    }

    /// The `∘ σ'` step of paper Eq. (3): multiplies the incoming error by
    /// the activation derivative evaluated at the cached pre-activations,
    /// writing the per-element `delta · σ'(pre)` product into a
    /// caller-provided tensor. Overwrites every element of `out`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn backprop_into(self, delta_post: &Fmaps<f32>, pre: &Fmaps<f32>, out: &mut Fmaps<f32>) {
        assert_eq!(delta_post.shape(), pre.shape(), "activation shape mismatch");
        assert_eq!(pre.shape(), out.shape(), "activation shape mismatch");
        for ((o, &d), &p) in out
            .as_mut_slice()
            .iter_mut()
            .zip(delta_post.as_slice())
            .zip(pre.as_slice())
        {
            *o = d * self.derivative_scalar(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_through() {
        assert_eq!(Activation::Identity.apply_scalar(-3.5), -3.5);
        assert_eq!(Activation::Identity.derivative_scalar(-3.5), 1.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply_scalar(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_scalar(-2.0), 0.0);
        assert_eq!(Activation::Relu.derivative_scalar(2.0), 1.0);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let a = Activation::LeakyRelu { alpha: 0.1 };
        assert_eq!(a.apply_scalar(-10.0), -1.0);
        assert_eq!(a.derivative_scalar(-10.0), 0.1);
        assert_eq!(a.apply_scalar(4.0), 4.0);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let eps = 1e-3f32;
        for x in [-2.0f32, -0.5, 0.0, 0.7, 1.9] {
            let fd = (Activation::Tanh.apply_scalar(x + eps)
                - Activation::Tanh.apply_scalar(x - eps))
                / (2.0 * eps);
            let an = Activation::Tanh.derivative_scalar(x);
            assert!((fd - an).abs() < 1e-3, "x={x}: fd={fd} an={an}");
        }
    }

    #[test]
    fn tensor_apply_and_backprop() {
        let pre = Fmaps::from_vec(1, 1, 3, vec![-1.0f32, 0.0, 2.0]);
        let a = Activation::LeakyRelu { alpha: 0.5 };
        let mut out = Fmaps::zeros(1, 1, 3);
        a.apply_into(&pre, &mut out);
        assert_eq!(out.as_slice(), &[-0.5, 0.0, 2.0]);
        let delta = Fmaps::from_vec(1, 1, 3, vec![1.0f32, 1.0, 1.0]);
        a.backprop_into(&delta, &pre, &mut out);
        assert_eq!(out.as_slice(), &[0.5, 1.0, 1.0]);
    }

    #[test]
    fn into_variants_match_the_elementwise_definition() {
        let pre = Fmaps::from_vec(1, 1, 4, vec![-2.0f32, -0.1, 0.0, 1.5]);
        let delta = Fmaps::from_vec(1, 1, 4, vec![0.5f32, -3.0, 2.0, 1.0]);
        for a in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu { alpha: 0.2 },
            Activation::Tanh,
        ] {
            let mut out = Fmaps::zeros(1, 1, 4);
            a.apply_into(&pre, &mut out);
            assert_eq!(out, pre.map(|v| a.apply_scalar(v)), "{a:?} apply");
            a.backprop_into(&delta, &pre, &mut out);
            let deriv = pre.map(|v| a.derivative_scalar(v));
            assert_eq!(out, delta.hadamard(&deriv), "{a:?} backprop");
        }
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
