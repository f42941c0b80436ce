//! Optimizers over flat parameter vectors.
//!
//! The FL plane exchanges flattened parameter vectors, so optimizers operate
//! directly on `&mut [f32]` / `&[f32]` pairs. Client-local optimizer state
//! (RMSProp accumulators) persists across federated rounds exactly as it does
//! in the paper's PyTorch implementation.

/// A first-order optimizer updating parameters in place from gradients.
pub trait Optimizer: Send {
    /// One update step: modifies `params` using `grads`.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Replaces the learning rate (used by decaying schedules).
    fn set_lr(&mut self, lr: f32);

    /// Every word of state the optimizer keeps besides its learning rate,
    /// as one flat vector (RMSProp's squared-gradient accumulators, which
    /// a step of another length resizes to zeros first), or `None` for a
    /// stateless one. Zeros are a fresh optimizer's state. Whoever stores
    /// an optimizer apart from it saves the learning rate and these words,
    /// and restores both into a fresh optimizer of the same kind.
    fn state_mut(&mut self) -> Option<&mut Vec<f32>>;
}

/// Plain stochastic gradient descent.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_mut(&mut self) -> Option<&mut Vec<f32>> {
        None
    }
}

/// RMSProp as used for the paper's Sent140 LSTM (lr 0.01).
pub struct RmsProp {
    lr: f32,
    alpha: f32,
    eps: f32,
    sq_avg: Vec<f32>,
}

impl RmsProp {
    /// PyTorch-default smoothing (`alpha = 0.99`, `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        RmsProp {
            lr,
            alpha: 0.99,
            eps: 1e-8,
            sq_avg: Vec::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.sq_avg.len() != params.len() {
            self.sq_avg.clear();
            self.sq_avg.resize(params.len(), 0.0);
        }
        for ((p, g), s) in params.iter_mut().zip(grads).zip(&mut self.sq_avg) {
            *s = self.alpha * *s + (1.0 - self.alpha) * g * g;
            *p -= self.lr * g / (s.sqrt() + self.eps);
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_mut(&mut self) -> Option<&mut Vec<f32>> {
        Some(&mut self.sq_avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step_is_linear() {
        let mut o = Sgd::new(0.1);
        let mut p = vec![1.0f32, 2.0];
        o.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, 2.1]);
    }

    #[test]
    fn rmsprop_normalizes_gradient_scale() {
        // Two parameters with gradients of very different scales should move
        // by comparable amounts after the accumulator warms up.
        let mut o = RmsProp::new(0.01);
        let mut p = vec![0.0f32, 0.0];
        for _ in 0..100 {
            o.step(&mut p, &[100.0, 0.01]);
        }
        let ratio = p[0] / p[1];
        assert!(
            (0.5..2.0).contains(&ratio),
            "moves should be comparable, ratio {ratio}"
        );
    }

    #[test]
    fn rmsprop_descends_on_quadratic() {
        // f(x) = x², gradient 2x; RMSProp should approach 0.
        let mut o = RmsProp::new(0.05);
        let mut p = vec![3.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * p[0]];
            o.step(&mut p, &g);
        }
        assert!(p[0].abs() < 0.1, "got {}", p[0]);
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut o = Sgd::new(0.1);
        o.set_lr(1.0);
        let mut p = vec![0.0f32];
        o.step(&mut p, &[1.0]);
        assert_eq!(p[0], -1.0);
        assert_eq!(o.lr(), 1.0);
    }
}
