//! A single-layer LSTM with full backpropagation through time.
//!
//! Input and output are time-major: `[T, N, D] → [T, N, H]`, so stacking two
//! `Lstm`s reproduces the paper's 2-layer Sent140 model. Gate order in the
//! packed weight matrices is `i, f, g, o`.
//!
//! Each timestep is two small GEMMs and one fused element-wise pass
//! (`rfl_tensor::lstm_cell_forward_slices`), backward one fused pass and
//! four GEMMs. Two restructurings that look attractive are deliberately not
//! done: hoisting `X·Wx` over all timesteps into one `[T·N, D]` GEMM buys
//! nothing once the per-step product is a register tile (measured 28 µs
//! against 16 × 1.55 µs at the Sent140 shape), and summing `dWx` / `dWh`
//! over `t` inside one GEMM would change the summation order and with it
//! every pinned loss.

use crate::layer::Layer;
use crate::param::Param;
use rand::Rng;
use rfl_tensor::{
    lstm_cell_backward_slices, lstm_cell_forward_slices, Initializer, LstmCellCache, Tensor,
};

/// Per-timestep cache for BPTT. Entries are reused across forward calls, so
/// a warm pass writes into existing buffers instead of allocating. An
/// inference forward runs every timestep through entry 0 and fills in only
/// what the step itself reads back (`gates`, `tanh_c`).
struct StepCache {
    h_prev: Tensor, // [N, H]
    c_prev: Tensor, // [N, H]
    gates: Tensor,  // [N, 4H] post-activation (i, f, g, o)
    tanh_c: Tensor, // [N, H]
}

impl StepCache {
    fn scratch() -> Self {
        StepCache {
            h_prev: Tensor::scratch(),
            c_prev: Tensor::scratch(),
            gates: Tensor::scratch(),
            tanh_c: Tensor::scratch(),
        }
    }
}

/// Per-layer scratch buffers hoisted out of the timestep loops.
struct LstmScratch {
    x_t: Tensor,     // [N, D] current timestep slice
    zh: Tensor,      // [N, 4H] h·Wh product
    h: Tensor,       // [N, H] running hidden state
    c: Tensor,       // [N, H] running cell state
    dz: Tensor,      // [N, 4H]
    dc_prev: Tensor, // [N, H]
    dh_next: Tensor, // [N, H]
    dc_next: Tensor, // [N, H]
    dx_t: Tensor,    // [N, D]
    dwx: Tensor,     // [D, 4H] per-step dWx, accumulated into the grad
    dwh: Tensor,     // [H, 4H]
    db: Tensor,      // [4H]
}

impl LstmScratch {
    fn new() -> Self {
        LstmScratch {
            x_t: Tensor::scratch(),
            zh: Tensor::scratch(),
            h: Tensor::scratch(),
            c: Tensor::scratch(),
            dz: Tensor::scratch(),
            dc_prev: Tensor::scratch(),
            dh_next: Tensor::scratch(),
            dc_next: Tensor::scratch(),
            dx_t: Tensor::scratch(),
            dwx: Tensor::scratch(),
            dwh: Tensor::scratch(),
            db: Tensor::scratch(),
        }
    }
}

/// One LSTM layer, a [`Layer`] from `[T, N, D]` to `[T, N, H]`. Hidden and
/// cell states start at zero each sequence batch.
pub struct Lstm {
    pub wx: Param, // [D, 4H]
    pub wh: Param, // [H, 4H]
    pub b: Param,  // [4H]
    in_dim: usize,
    hidden: usize,
    cache: Vec<StepCache>,
    /// The last training forward's input `[T, N, D]`.
    cached_input: Tensor,
    /// Whether `cache` and `cached_input` describe the most recent forward,
    /// i.e. whether it ran with `train = true`.
    cache_valid: bool,
    scratch: LstmScratch,
}

impl Lstm {
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        let wx = Initializer::XavierUniform {
            fan_in: in_dim,
            fan_out: 4 * hidden,
        }
        .init(&[in_dim, 4 * hidden], rng);
        let wh = Initializer::XavierUniform {
            fan_in: hidden,
            fan_out: 4 * hidden,
        }
        .init(&[hidden, 4 * hidden], rng);
        // Forget-gate bias starts at 1 so early training does not forget
        // everything (standard LSTM initialization).
        let mut b = Tensor::zeros(&[4 * hidden]);
        for v in &mut b.data_mut()[hidden..2 * hidden] {
            *v = 1.0;
        }
        Lstm {
            wx: Param::new(wx),
            wh: Param::new(wh),
            b: Param::new(b),
            in_dim,
            hidden,
            cache: Vec::new(),
            cached_input: Tensor::scratch(),
            cache_valid: false,
            scratch: LstmScratch::new(),
        }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }
}

impl Layer for Lstm {
    /// Runs the whole sequence `[T, N, D]`, writing all hidden states
    /// `[T, N, H]` into `out`; a warm call (shapes seen before) allocates
    /// nothing. With `train = false` nothing is kept for BPTT: no per-step
    /// copies of `h`, `c` or the input, and the cache is marked stale, so a
    /// backward before the next training forward panics.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        assert_eq!(input.ndim(), 3, "Lstm expects [T, N, D]");
        let (t_len, n, d) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        assert_eq!(d, self.in_dim, "Lstm input dim mismatch");
        let h_dim = self.hidden;

        out.resize(&[t_len, n, h_dim]); // every timestep slice overwritten below
        let cached_steps = if train { t_len } else { 1 };
        while self.cache.len() < cached_steps {
            self.cache.push(StepCache::scratch());
        }
        let s = &mut self.scratch;
        s.h.resize(&[n, h_dim]);
        s.h.fill(0.0);
        s.c.resize(&[n, h_dim]);
        s.c.fill(0.0);

        for t in 0..t_len {
            s.x_t.resize(&[n, d]);
            s.x_t
                .data_mut()
                .copy_from_slice(&input.data()[t * n * d..(t + 1) * n * d]);
            let step = &mut self.cache[if train { t } else { 0 }];
            if train {
                step.c_prev.assign(&s.c);
                step.h_prev.assign(&s.h);
            }
            // Pre-activations for all four gates at once: [N, 4H].
            s.x_t.matmul_into(&self.wx.value, &mut step.gates);
            s.h.matmul_into(&self.wh.value, &mut s.zh);
            // z = (x·Wx + h·Wh) + b → σ, σ, tanh, σ in place;
            // c = f ⊙ c_prev + i ⊙ g ;  h = o ⊙ tanh(c)
            step.tanh_c.resize(&[n, h_dim]); // fully overwritten below
            lstm_cell_forward_slices(
                step.gates.data_mut(),
                s.zh.data(),
                self.b.value.data(),
                s.c.data_mut(),
                step.tanh_c.data_mut(),
                s.h.data_mut(),
            );
            out.data_mut()[t * n * h_dim..(t + 1) * n * h_dim].copy_from_slice(s.h.data());
        }
        if train {
            self.cached_input.assign(input);
        }
        self.cache_valid = train;
    }

    /// BPTT: `dout` is the gradient w.r.t. every hidden state `[T, N, H]`;
    /// writes the gradient w.r.t. the input `[T, N, D]` into `dinput`. A
    /// warm call allocates nothing.
    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let Lstm {
            wx,
            wh,
            b,
            hidden,
            cache: caches,
            cached_input: input,
            cache_valid,
            scratch: s,
            ..
        } = self;
        assert!(
            *cache_valid,
            "Lstm::backward needs a training forward: the last forward ran with \
             train = false (or none ran) and kept nothing for BPTT"
        );
        let (t_len, n, d) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        let h_dim = *hidden;
        assert_eq!(dout.dims(), &[t_len, n, h_dim], "Lstm dout shape mismatch");

        dinput.resize(&[t_len, n, d]); // every timestep slice overwritten below
        s.dh_next.resize(&[n, h_dim]);
        s.dh_next.fill(0.0);
        s.dc_next.resize(&[n, h_dim]);
        s.dc_next.fill(0.0);

        for t in (0..t_len).rev() {
            let cache = &caches[t];
            // dh = upstream for this step + carry from step t+1;
            // dc = dh·o·(1−tanh²c) + carried dc; then the four gate
            // gradients through their activations.
            s.dz.resize(&[n, 4 * h_dim]); // fully overwritten below
            s.dc_prev.resize(&[n, h_dim]); // fully overwritten below
            lstm_cell_backward_slices(
                h_dim,
                LstmCellCache {
                    gates: cache.gates.data(),
                    tanh_c: cache.tanh_c.data(),
                    c_prev: cache.c_prev.data(),
                },
                &dout.data()[t * n * h_dim..(t + 1) * n * h_dim],
                s.dh_next.data(),
                s.dc_next.data(),
                s.dz.data_mut(),
                s.dc_prev.data_mut(),
            );

            s.x_t.resize(&[n, d]);
            s.x_t
                .data_mut()
                .copy_from_slice(&input.data()[t * n * d..(t + 1) * n * d]);
            // Per-step products land in scratch, then accumulate — matching
            // the allocating implementation's summation order exactly.
            s.x_t.matmul_transa_into(&s.dz, &mut s.dwx);
            wx.grad.add_assign(&s.dwx);
            cache.h_prev.matmul_transa_into(&s.dz, &mut s.dwh);
            wh.grad.add_assign(&s.dwh);
            s.dz.sum_axis0_into(&mut s.db);
            b.grad.add_assign(&s.db);

            s.dz.matmul_transb_into(&wx.value, &mut s.dx_t);
            dinput.data_mut()[t * n * d..(t + 1) * n * d].copy_from_slice(s.dx_t.data());
            s.dz.matmul_transb_into(&wh.value, &mut s.dh_next);
            std::mem::swap(&mut s.dc_next, &mut s.dc_prev);
        }
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wx);
        f(&self.wh);
        f(&self.b);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Lstm::new(3, 5, &mut rng);
        let x = Initializer::Normal(1.0).init(&[4, 2, 3], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.dims(), &[4, 2, 5]);
        assert!(y.is_finite());
    }

    #[test]
    fn hidden_states_are_bounded_by_one() {
        // h = o·tanh(c) with o ∈ (0,1) ⇒ |h| < 1.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Lstm::new(2, 4, &mut rng);
        let x = Initializer::Normal(5.0).init(&[6, 3, 2], &mut rng);
        let y = l.forward(&x, true);
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn zero_input_zero_initial_state_gives_small_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Lstm::new(2, 3, &mut rng);
        let x = Tensor::zeros(&[3, 1, 2]);
        let y = l.forward(&x, true);
        // With zero input, h stays at o(b)·tanh(c) where c grows only from
        // i(b)·g(b) = σ(0)·tanh(0) = 0 ⇒ all outputs are exactly 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn bptt_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Lstm::new(2, 3, &mut rng);
        check_layer_gradients(&mut l, &[3, 2, 2], &mut rng);
    }

    #[test]
    fn inference_forward_matches_training_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Lstm::new(3, 11, &mut rng);
        let x = Initializer::Normal(1.0).init(&[5, 3, 3], &mut rng);
        let trained = l.forward(&x, true);
        let inferred = l.forward(&x, false);
        assert_eq!(trained.data(), inferred.data());
    }

    #[test]
    #[should_panic(expected = "train = false")]
    fn backward_after_inference_forward_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut l = Lstm::new(2, 3, &mut rng);
        let x = Initializer::Normal(1.0).init(&[4, 2, 2], &mut rng);
        l.forward(&x, true);
        l.forward(&x, false);
        l.backward(&Tensor::ones(&[4, 2, 3]));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = Lstm::new(2, 3, &mut rng);
        let b = l.b.value.data();
        assert!(b[0..3].iter().all(|&v| v == 0.0)); // i
        assert!(b[3..6].iter().all(|&v| v == 1.0)); // f
        assert!(b[6..12].iter().all(|&v| v == 0.0)); // g, o
    }
}
