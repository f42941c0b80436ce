//! # rfl-tensor
//!
//! A small, dependency-light dense tensor library used as the numerical
//! substrate for the rFedAvg reproduction. Tensors are row-major, contiguous,
//! `f32` buffers with an explicit shape.
//!
//! The library intentionally covers exactly the operations needed to train
//! the paper's models (CNNs and LSTMs) with manual backpropagation:
//! element-wise arithmetic, matrix products (including the transposed
//! variants required by backward passes), 2-D convolution and ReLU with 2×2
//! max-pooling in one pass (forward and backward), row-wise log-softmax,
//! column reductions, and random initialization.
//!
//! A kernel writes into a buffer its caller owns; there is no allocating
//! form. Start an output as [`Tensor::scratch`] (or take one from a
//! [`Workspace`]): the kernel resizes it and overwrites every element, so a
//! reused buffer gives the bytes of a fresh one.
//!
//! ## Quick example
//!
//! ```
//! use rfl_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
//! let mut c = Tensor::scratch();
//! a.matmul_into(&b, &mut c);
//! assert_eq!(c.data(), a.data());
//! ```

mod codec;
mod conv;
pub mod fastmath;
mod init;
mod matmul;
mod ops;
mod pool;
mod reduce;
mod shape;
pub mod simd;
mod tensor;
mod threads;
mod workspace;

pub use codec::{
    decode_f32_into, encode_f32_into, f32_bytes, f32_bytes_mut, u32_bytes, wire_size, CodecError,
};
pub use conv::{
    conv2d_backward_into, conv2d_backward_params_into, conv2d_into, Conv2dGrads, ConvSpec,
};
pub use fastmath::normal_fill;
pub use init::{normal_sample, Initializer};
pub use pool::{relu_maxpool2x2_backward_into, relu_maxpool2x2_into};
pub use shape::Shape;
pub use simd::{
    add_assign_slices, axpy_slices, dot_slices, dot_tile_slices, exp_slices,
    lstm_cell_backward_slices, lstm_cell_forward_slices, scale_slices, scale_slices_into,
    sigmoid_slices, simd_backend, sq_dist_slices, sum_slices, tanh_slices, LstmCellCache,
};
pub use tensor::Tensor;
pub use threads::{
    parallel_for, parallel_for_chunks, parallel_for_chunks2, set_thread_budget, thread_budget,
};
pub use workspace::Workspace;
