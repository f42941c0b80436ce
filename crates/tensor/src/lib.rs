//! # rfl-tensor
//!
//! A small, dependency-light dense tensor library used as the numerical
//! substrate for the rFedAvg reproduction. Tensors are row-major, contiguous,
//! `f32` buffers with an explicit shape.
//!
//! The library intentionally covers exactly the operations needed to train
//! the paper's models (CNNs and LSTMs) with manual backpropagation:
//! element-wise arithmetic, matrix products (including the transposed
//! variants required by backward passes), 2-D convolution and max-pooling
//! (forward and backward), row-wise softmax / log-softmax, reductions, and
//! random initialization.
//!
//! ## Quick example
//!
//! ```
//! use rfl_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
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
    decode_f32_into, decode_f32_slice, encode_f32_into, encode_f32_slice, wire_size, CodecError,
};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_into, conv2d_backward_params_into, conv2d_into,
    Conv2dGrads, ConvSpec,
};
pub use fastmath::{normal_fill, normal_from_units};
pub use init::{normal_sample, Initializer};
pub use pool::{maxpool2d, maxpool2d_backward, maxpool2d_backward_into, maxpool2d_into, PoolSpec};
pub use shape::Shape;
pub use simd::{
    add_assign_slices, axpy_slices, dot_slices, dot_tile_slices, exp_slices,
    lstm_cell_backward_slices, lstm_cell_forward_slices, scale_add_slices, scale_slices,
    scale_slices_into, sigmoid_slices, simd_backend, sq_dist_slices, sum_slices, tanh_slices,
    LstmCellCache,
};
pub use tensor::Tensor;
pub use threads::{
    parallel_for, parallel_for_chunks, parallel_for_chunks2, set_thread_budget, thread_budget,
};
pub use workspace::Workspace;
